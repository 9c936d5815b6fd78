// nbuf_cli — command-line front end for the buffer insertion library.
//
//   nbuf_cli <input.net> [options]
//
//   --mode M          analyze | buffopt (default) | delayopt | noise
//                     analyze:  report noise and timing, insert nothing
//                     buffopt:  Algorithm 3, fewest buffers meeting noise
//                               and timing (Problem 3)
//                     delayopt: delay-only Van Ginneken baseline
//                     noise:    Algorithm 2, minimal buffers for noise only
//                               (Problem 1)
//   --max-buffers K   count cap for buffopt/delayopt (default 24)
//   --segment UM      wire segmenting granularity in µm (default 500)
//   --wire-sizing     enable simultaneous 1x/2x/4x wire sizing
//   --golden          additionally run the transient golden noise analysis
//   --library FILE    insertion library (.lib, docs/library.md) instead of
//                     the paper's built-in 11-type library
//   -o FILE           write the buffered net back out as a .net file
//
//   nbuf_cli batch (--dir DIR | --netgen N) [options]
//
//   Runs the buffopt/delayopt pipeline over a whole workload on a worker
//   pool (see src/batch/batch.hpp; results are deterministic for any
//   thread count) and prints throughput plus aggregate noise/timing tables.
//
//   --dir DIR         optimize every *.net file in DIR
//   --netgen N        optimize N synthetic testbench nets instead
//   --seed S          netgen seed (default 9851)
//   --threads T       worker threads (default: hardware concurrency)
//   --mode M          buffopt (default) | delayopt
//   --max-buffers K   as above
//   --segment UM      as above
//   --stats           also print the aggregated VgStats counters as one
//                     "vgstats: name value, ..." line (phase wall times
//                     come from --trace)
//   --library FILE    insertion library (.lib, docs/library.md)
//   --lib-size B      generate a synthetic B-type strength ladder instead
//                     (library-size sweeps; excludes --library)
//   --lib-inverting F fraction of ladder rungs that are inverters,
//                     in [0, 1) (default 0.45, the paper library's mix)
//   --trace FILE      record trace spans around the run and write Chrome
//                     Trace Event JSON (open in Perfetto / chrome://tracing;
//                     docs/observability.md) plus print a per-phase wall
//                     time breakdown table
//   --trace-level L   phase (default) | detail — detail adds the inner DP
//                     spans (per prune/merge/wire step; large traces)
//   --metrics FILE    write an nbuf-metrics-v1 JSON snapshot (batch + DP
//                     counters are bit-identical at any --threads value)
//
//   nbuf_cli signoff (--dir DIR | --netgen N) [options]
//
//   Optimizes the workload exactly like `batch`, then independently
//   re-verifies every solution three ways — golden transient simulation,
//   Devgan metric, Elmore timing (src/signoff) — and reports structured
//   violations plus metric-vs-golden pessimism statistics.
//
//   --dir/--netgen/--seed/--threads/--mode/--max-buffers/--segment
//   --trace/--trace-level/--metrics
//                     as for `batch` (the trace covers both the optimize
//                     and the verify pass)
//   --json FILE       write the full JSON report (docs/signoff.md schema)
//   --leaves          include per-leaf rows in the JSON (large)
//   --tol-noise MV    noise-slack grace in millivolt (default 0 = exact)
//   --tol-timing PS   timing-slack grace in picoseconds (default 0)
//   --tol-bound MV    slop on the metric>=golden bound check (default 1e-6)
//   --convergence     re-simulate every stage at dt/2 and flag stages whose
//                     peaks moved (golden step-size sanity check)
//
// Exit status (kExit* in cli_app.hpp): 0 when the run is clean (batch /
// signoff: every net), 1 when violations were found (including analyze
// mode), 2 on usage or input errors — so CI scripts can distinguish "the
// design is bad" from "the invocation is bad".
#include "cli_app.hpp"

#include "serve_app.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "batch/batch.hpp"
#include "core/alg2_multi_sink.hpp"
#include "core/tool.hpp"
#include "io/libfile.hpp"
#include "io/netfile.hpp"
#include "obs/export.hpp"
#include "opt_parse.hpp"
#include "sim/golden.hpp"
#include "signoff/workload.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace nbuf::cli {

namespace {

using namespace nbuf;
using namespace nbuf::units;

struct Args {
  std::string input;
  std::string output;
  std::string mode = "buffopt";
  std::string library_path;  // empty = default_library()
  std::size_t max_buffers = 24;
  double segment = 500.0;
  bool wire_sizing = false;
  bool golden = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <input.net> [--mode analyze|buffopt|delayopt|"
               "noise] [--max-buffers K] [--segment UM] [--wire-sizing] "
               "[--golden] [--library FILE] [-o out.net]\n"
               "       %s batch (--dir DIR | --netgen N) [--seed S] "
               "[--threads T] [--mode buffopt|delayopt] [--max-buffers K] "
               "[--segment UM] [--stats] "
               "[--library FILE | --lib-size B [--lib-inverting F]] "
               "[--trace FILE] [--trace-level phase|detail] "
               "[--metrics FILE]\n"
               "       %s signoff (--dir DIR | --netgen N) [batch options] "
               "[--json FILE] [--leaves] [--tol-noise MV] [--tol-timing PS] "
               "[--tol-bound MV] [--convergence]\n"
               "       %s serve-client (--port P | --unix PATH) [--host H] "
               "[--script FILE]\n",
               argv0, argv0, argv0, argv0);
  return kExitUsage;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (a == "--mode") {
      const char* v = value();
      if (!v) return false;
      args.mode = v;
    } else if (a == "--max-buffers") {
      if (!parse_count(value(), "--max-buffers", args.max_buffers))
        return false;
    } else if (a == "--segment") {
      if (!parse_number(value(), "--segment", args.segment)) return false;
    } else if (a == "--wire-sizing") {
      args.wire_sizing = true;
    } else if (a == "--golden") {
      args.golden = true;
    } else if (a == "--library") {
      const char* v = value();
      if (!v) return false;
      args.library_path = v;
    } else if (a == "-o") {
      const char* v = value();
      if (!v) return false;
      args.output = v;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return false;
    } else if (args.input.empty()) {
      args.input = a;
    } else {
      return false;
    }
  }
  if (args.max_buffers == 0) {
    std::fprintf(stderr, "--max-buffers must be at least 1\n");
    return false;
  }
  if (args.segment <= 0.0) {
    std::fprintf(stderr, "--segment must be positive\n");
    return false;
  }
  return !args.input.empty();
}

void print_noise(const char* label, const noise::NoiseReport& rep) {
  std::printf("%-22s %zu violation(s), worst slack %+.3f V\n", label,
              rep.violation_count, rep.worst_slack);
}

void print_timing(const char* label, const elmore::TimingReport& rep) {
  std::printf("%-22s max delay %.1f ps, worst slack %+.1f ps\n", label,
              rep.max_delay / ps, rep.worst_slack / ps);
}

struct BatchArgs {
  std::string dir;
  std::size_t netgen_count = 0;
  std::uint64_t seed = 9851;
  std::size_t threads = 0;
  std::string mode = "buffopt";
  std::size_t max_buffers = 24;
  double segment = 500.0;
  bool stats = false;
  std::string library_path;          // .lib file (empty = default/ladder)
  std::size_t lib_size = 0;          // >0: synthetic ladder of this size
  double lib_inverting = 0.45;       // ladder inverter fraction
  std::string trace;                 // Chrome trace JSON path (empty = off)
  std::string trace_level = "phase"; // phase | detail
  std::string metrics;               // nbuf-metrics-v1 JSON path
};

// Options only the signoff subcommand accepts, on top of BatchArgs.
struct SignoffArgs {
  std::string json;           // write the JSON report here (empty = don't)
  bool leaves = false;        // include per-leaf rows in the JSON
  double tol_noise_mv = 0.0;  // noise-slack grace (millivolt)
  double tol_timing_ps = 0.0; // timing-slack grace (picosecond)
  double tol_bound_mv = 1e-6; // metric>=golden bound slop (millivolt)
  bool convergence = false;   // golden step-size sanity check
};

// Parses `batch` options into `args`; when `so` is non-null the signoff
// extras are accepted too (argv[1] is the already-matched subcommand).
bool parse_batch_args(int argc, char** argv, BatchArgs& args,
                      SignoffArgs* so = nullptr) {
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (so && a == "--json") {
      const char* v = value();
      if (!v) return false;
      so->json = v;
    } else if (so && a == "--leaves") {
      so->leaves = true;
    } else if (so && a == "--tol-noise") {
      if (!parse_number(value(), "--tol-noise", so->tol_noise_mv))
        return false;
    } else if (so && a == "--tol-timing") {
      if (!parse_number(value(), "--tol-timing", so->tol_timing_ps))
        return false;
    } else if (so && a == "--tol-bound") {
      if (!parse_number(value(), "--tol-bound", so->tol_bound_mv))
        return false;
    } else if (so && a == "--convergence") {
      so->convergence = true;
    } else if (a == "--dir") {
      const char* v = value();
      if (!v) return false;
      args.dir = v;
    } else if (a == "--netgen") {
      if (!parse_count(value(), "--netgen", args.netgen_count)) return false;
    } else if (a == "--seed") {
      if (!parse_count64(value(), "--seed", args.seed)) return false;
    } else if (a == "--threads") {
      if (!parse_count(value(), "--threads", args.threads)) return false;
    } else if (a == "--mode") {
      const char* v = value();
      if (!v) return false;
      args.mode = v;
    } else if (a == "--max-buffers") {
      if (!parse_count(value(), "--max-buffers", args.max_buffers))
        return false;
    } else if (a == "--segment") {
      if (!parse_number(value(), "--segment", args.segment)) return false;
    } else if (a == "--stats") {
      args.stats = true;
    } else if (a == "--library") {
      const char* v = value();
      if (!v) return false;
      args.library_path = v;
    } else if (a == "--lib-size") {
      if (!parse_count(value(), "--lib-size", args.lib_size)) return false;
    } else if (a == "--lib-inverting") {
      if (!parse_number(value(), "--lib-inverting", args.lib_inverting))
        return false;
    } else if (a == "--trace") {
      const char* v = value();
      if (!v) return false;
      args.trace = v;
    } else if (a == "--trace-level") {
      const char* v = value();
      if (!v) return false;
      args.trace_level = v;
    } else if (a == "--metrics") {
      const char* v = value();
      if (!v) return false;
      args.metrics = v;
    } else {
      std::fprintf(stderr, "unknown batch option %s\n", a.c_str());
      return false;
    }
  }
  if (args.mode != "buffopt" && args.mode != "delayopt") return false;
  if (args.trace_level != "phase" && args.trace_level != "detail") {
    std::fprintf(stderr, "--trace-level must be phase or detail\n");
    return false;
  }
  if (args.max_buffers == 0) {
    std::fprintf(stderr, "--max-buffers must be at least 1\n");
    return false;
  }
  if (args.segment <= 0.0) {
    std::fprintf(stderr, "--segment must be positive\n");
    return false;
  }
  if (!args.library_path.empty() && args.lib_size > 0) {
    std::fprintf(stderr, "--library and --lib-size are exclusive\n");
    return false;
  }
  if (args.lib_inverting < 0.0 || args.lib_inverting >= 1.0) {
    std::fprintf(stderr, "--lib-inverting must be in [0, 1)\n");
    return false;
  }
  if (so && (so->tol_noise_mv < 0.0 || so->tol_timing_ps < 0.0 ||
             so->tol_bound_mv < 0.0)) {
    std::fprintf(stderr, "signoff tolerances must be nonnegative\n");
    return false;
  }
  // Exactly one workload source.
  const bool have_dir = !args.dir.empty();
  const bool have_gen = args.netgen_count > 0;
  return have_dir != have_gen;
}

// Loads the workload a batch-style subcommand names; returns kExitClean or
// the exit status to fail with.
int load_workload(const char* what, const BatchArgs& args,
                  const lib::BufferLibrary& library,
                  std::vector<batch::BatchNet>& nets) {
  try {
    if (!args.dir.empty()) {
      nets = batch::load_directory(args.dir, library);
    } else {
      netgen::TestbenchOptions gen;
      gen.net_count = args.netgen_count;
      gen.seed = args.seed;
      nets = batch::from_generated(netgen::generate_testbench(library, gen));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s workload: %s\n", what, e.what());
    return kExitUsage;
  }
  if (nets.empty()) {
    std::fprintf(stderr, "%s workload is empty\n", what);
    return kExitUsage;
  }
  return kExitClean;
}

batch::BatchOptions engine_options(const BatchArgs& args) {
  batch::BatchOptions opt;
  opt.threads = args.threads;
  opt.mode = args.mode == "buffopt" ? batch::BatchMode::BuffOpt
                                    : batch::BatchMode::DelayOpt;
  opt.max_buffers = args.max_buffers;
  opt.tool.segmenting.max_segment_length = args.segment;
  return opt;
}

obs::TraceLevel trace_level_of(const BatchArgs& args) {
  return args.trace_level == "detail" ? obs::TraceLevel::Detail
                                      : obs::TraceLevel::Phase;
}

// Resolves the insertion library for a run: an explicit --library file, a
// generated --lib-size strength ladder, or the paper's default. Load and
// parse failures are usage errors (exit 2), same as an unreadable .net.
bool resolve_library(const std::string& path, std::size_t lib_size,
                     double lib_inverting, lib::BufferLibrary& out) {
  try {
    if (!path.empty()) {
      out = io::read_library_file(path).library;
      std::printf("library: %s (%zu types, %zu inverting)\n", path.c_str(),
                  out.size(), out.inverting_count());
    } else if (lib_size > 0) {
      out = lib::make_ladder_library(lib_size, lib_inverting);
      std::printf("library: %zu-type ladder (%zu inverting)\n", out.size(),
                  out.inverting_count());
    } else {
      out = lib::default_library();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "library: %s\n", e.what());
    return false;
  }
  return true;
}

// Shared by --trace/--metrics/--json writers: an unwritable path is a
// usage error (exit 2), same as an unreadable input.
bool write_text_file(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << body << '\n';
  std::printf("wrote %s\n", path.c_str());
  return true;
}

void print_phase_table(const obs::TraceData& trace) {
  const std::vector<obs::PhaseRow> rows = obs::phase_breakdown(trace);
  if (rows.empty()) return;
  util::Table t({"span", "count", "total ms", "self ms"});
  for (const obs::PhaseRow& r : rows)
    t.add_row({r.name, util::Table::integer(static_cast<long long>(r.count)),
               util::Table::num(r.seconds * 1e3, 3),
               util::Table::num(r.self_seconds * 1e3, 3)});
  std::fputs(t.render().c_str(), stdout);
}

}  // namespace

int batch_main(int argc, char** argv) {
  BatchArgs args;
  if (!parse_batch_args(argc, argv, args)) return usage(argv[0]);

  lib::BufferLibrary library;
  if (!resolve_library(args.library_path, args.lib_size, args.lib_inverting,
                       library))
    return kExitUsage;
  std::vector<batch::BatchNet> nets;
  if (const int rc = load_workload("batch", args, library, nets);
      rc != kExitClean)
    return rc;

  const batch::BatchEngine engine(engine_options(args));

  std::printf("batch: %zu nets, %zu thread(s), mode %s\n", nets.size(),
              engine.thread_count(), args.mode.c_str());
  // The recording must bracket the worker pool: started before the pool
  // spawns, stopped after it joins (src/obs/trace.hpp threading contract).
  std::optional<obs::TraceRecording> rec;
  if (!args.trace.empty()) rec.emplace(trace_level_of(args));
  const batch::BatchResult res = engine.run(nets, library);
  obs::TraceData trace;
  if (rec) {
    trace = rec->stop();
    rec.reset();
  }
  const batch::BatchSummary& s = res.summary;
  std::printf("throughput: %.1f nets/sec (wall %.3f s, dp %.3f s)\n",
              s.nets_per_second(), s.wall_seconds, s.dp_seconds);

  // Aggregate noise and timing tables over the whole workload.
  double worst_noise_before = 0.0, worst_noise_after = 0.0;
  double worst_slack_after = 0.0;
  bool first = true;
  for (const core::ToolResult& r : res.results) {
    if (first) {
      worst_noise_before = r.noise_before.worst_slack;
      worst_noise_after = r.noise_after.worst_slack;
      worst_slack_after = r.timing_after.worst_slack;
      first = false;
    } else {
      worst_noise_before =
          std::min(worst_noise_before, r.noise_before.worst_slack);
      worst_noise_after =
          std::min(worst_noise_after, r.noise_after.worst_slack);
      worst_slack_after =
          std::min(worst_slack_after, r.timing_after.worst_slack);
    }
  }
  std::printf("%-22s clean %zu/%zu, worst slack %+.3f V\n",
              "noise before:", s.noise_clean_before, s.net_count,
              worst_noise_before);
  std::printf("%-22s clean %zu/%zu, worst slack %+.3f V\n",
              "noise after:", s.noise_clean_after, s.net_count,
              worst_noise_after);
  std::printf("%-22s met %zu/%zu, worst slack %+.1f ps\n",
              "timing after:", s.timing_met, s.net_count,
              worst_slack_after / ps);
  std::printf("%-22s feasible %zu/%zu, %zu buffer(s) inserted\n",
              "solutions:", s.feasible, s.net_count, s.buffers_inserted);
  if (args.stats)
    std::printf("vgstats: %s\n", util::format(s.stats).c_str());

  if (!args.trace.empty()) {
    print_phase_table(trace);
    if (!write_text_file(args.trace, obs::chrome_trace_json(trace)))
      return kExitUsage;
  }
  if (!args.metrics.empty()) {
    obs::MetricsRegistry reg;
    batch::record_metrics(reg, s);
    if (!args.trace.empty()) obs::record_trace(reg, trace);
    if (!write_text_file(args.metrics, obs::metrics_json(reg.snapshot())))
      return kExitUsage;
  }

  const bool clean =
      s.feasible == s.net_count && s.noise_clean_after == s.net_count;
  return clean ? kExitClean : kExitViolations;
}

int signoff_main(int argc, char** argv) {
  BatchArgs args;
  SignoffArgs so;
  if (!parse_batch_args(argc, argv, args, &so)) return usage(argv[0]);

  lib::BufferLibrary library;
  if (!resolve_library(args.library_path, args.lib_size, args.lib_inverting,
                       library))
    return kExitUsage;
  std::vector<batch::BatchNet> nets;
  if (const int rc = load_workload("signoff", args, library, nets);
      rc != kExitClean)
    return rc;

  const batch::BatchEngine engine(engine_options(args));
  std::printf("signoff: %zu nets, %zu thread(s), mode %s\n", nets.size(),
              engine.thread_count(), args.mode.c_str());
  // One recording spans both passes, so the trace shows optimize and
  // verify side by side; started/stopped outside both worker pools.
  std::optional<obs::TraceRecording> rec;
  if (!args.trace.empty()) rec.emplace(trace_level_of(args));
  const batch::BatchResult res = engine.run(nets, library);
  std::printf("%-22s %.1f nets/sec (wall %.3f s)\n",
              "optimize:", res.summary.nets_per_second(),
              res.summary.wall_seconds);

  signoff::WorkloadOptions wopt;
  wopt.threads = args.threads;
  wopt.signoff.golden = sim::golden_options_from(lib::default_technology());
  wopt.signoff.golden.check_convergence = so.convergence;
  wopt.signoff.tol.noise_slack = so.tol_noise_mv * mV;
  wopt.signoff.tol.timing_slack = so.tol_timing_ps * ps;
  wopt.signoff.tol.bound_slop = so.tol_bound_mv * mV;
  const signoff::WorkloadSignoff w =
      signoff::run_workload(nets, res.results, library, wopt);
  obs::TraceData trace;
  if (rec) {
    trace = rec->stop();
    rec.reset();
  }

  std::printf("%-22s %.1f nets/sec (wall %.3f s)\n",
              "verify:", w.nets_per_second(), w.wall_seconds);
  std::printf("%-22s %zu/%zu net(s) clean, %zu violation record(s)\n",
              "signoff:", w.passed, w.net_count, w.violations);
  for (std::size_t k = 0; k < signoff::kViolationKinds; ++k)
    if (w.by_kind[k] > 0)
      std::printf("  %-20s %zu\n",
                  signoff::to_string(static_cast<signoff::ViolationKind>(k)),
                  w.by_kind[k]);
  std::printf("%-22s metric-clean %zu, golden-clean %zu%s\n",
              "theorem 1:", w.feasible, w.feasible_golden_clean,
              w.feasible_golden_clean == w.feasible ? " (bound held)"
                                                    : " (BOUND BROKEN)");
  std::printf("%-22s golden %+.3f V, metric %+.3f V, timing %+.1f ps\n",
              "worst slack:", w.worst_golden_slack, w.worst_metric_slack,
              w.worst_timing_slack / ps);
  std::printf("%-22s marched %zu of %zu (%.1f%%)\n", "golden steps:",
              w.golden_steps, w.golden_steps_horizon,
              w.golden_steps_horizon > 0
                  ? 100.0 * static_cast<double>(w.golden_steps) /
                        static_cast<double>(w.golden_steps_horizon)
                  : 0.0);
  if (w.pessimism.samples > 0) {
    std::printf("%-22s %zu sample(s), min %.2f / mean %.2f / max %.2f\n",
                "pessimism ratio:", w.pessimism.samples, w.pessimism.min,
                w.pessimism.mean(), w.pessimism.max);
    util::Table t({"metric/golden", "leaves"});
    for (std::size_t b = 0; b < signoff::PessimismStats::kBinCount; ++b) {
      if (w.pessimism.bins[b] == 0) continue;
      // bin 0 holds bound violations; bin b>=1 holds [1+(b-1)w, 1+bw).
      const double lo = 1.0 + static_cast<double>(b - 1) *
                                  signoff::PessimismStats::kBinWidth;
      char range[48];
      if (b == 0)
        std::snprintf(range, sizeof range, "< 1.00  (violation)");
      else if (b + 1 == signoff::PessimismStats::kBinCount)
        std::snprintf(range, sizeof range, ">= %.2f", lo);
      else
        std::snprintf(range, sizeof range, "%.2f - %.2f", lo,
                      lo + signoff::PessimismStats::kBinWidth);
      t.add_row({std::string(range),
                 util::Table::integer(
                     static_cast<long long>(w.pessimism.bins[b]))});
    }
    std::fputs(t.render().c_str(), stdout);
  }

  if (!args.trace.empty()) {
    print_phase_table(trace);
    if (!write_text_file(args.trace, obs::chrome_trace_json(trace)))
      return kExitUsage;
  }
  if (!args.metrics.empty()) {
    obs::MetricsRegistry reg;
    batch::record_metrics(reg, res.summary);
    signoff::record_metrics(reg, w);
    if (!args.trace.empty()) obs::record_trace(reg, trace);
    if (!write_text_file(args.metrics, obs::metrics_json(reg.snapshot())))
      return kExitUsage;
  }

  if (!so.json.empty()) {
    if (!write_text_file(so.json, signoff::to_json(w, so.leaves)))
      return kExitUsage;
  }

  std::printf("verdict: %s\n", w.pass() ? "PASS" : "FAIL");
  return w.pass() ? kExitClean : kExitViolations;
}

int cli_main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "batch") == 0)
    return batch_main(argc, argv);
  if (argc >= 2 && std::strcmp(argv[1], "signoff") == 0)
    return signoff_main(argc, argv);
  if (argc >= 2 && std::strcmp(argv[1], "serve-client") == 0)
    return serve_client_main(argc, argv);

  Args args;
  if (!parse_args(argc, argv, args)) return usage(argv[0]);

  lib::BufferLibrary library;
  if (!resolve_library(args.library_path, 0, 0.0, library))
    return kExitUsage;
  io::NetFile net;
  try {
    net = io::read_net_file(args.input, library);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", args.input.c_str(), e.what());
    return kExitUsage;
  }
  std::printf("net %s: %zu nodes, %zu sinks, %.2f mm, %.2f pF\n",
              net.name.empty() ? args.input.c_str() : net.name.c_str(),
              net.tree.node_count(), net.tree.sink_count(),
              net.tree.total_wirelength() / mm, net.tree.total_cap() / pF);

  const auto gopt = net.tech ? sim::golden_options_from(*net.tech)
                             : sim::golden_options_from(
                                   lib::default_technology());

  rct::RoutingTree result_tree = net.tree;
  rct::BufferAssignment result_buffers = net.buffers;
  bool clean = false;

  if (args.mode == "analyze") {
    const auto nrep = noise::analyze(net.tree, net.buffers, library);
    const auto trep = elmore::analyze(net.tree, net.buffers, library);
    print_noise("devgan metric:", nrep);
    print_timing("elmore timing:", trep);
    clean = nrep.clean();
  } else if (args.mode == "noise") {
    auto binary = net.tree;
    binary.binarize();
    const auto res = core::avoid_noise_multi_sink(binary, library);
    std::printf("algorithm 2: inserted %zu buffer(s)\n", res.buffer_count);
    const auto nrep = noise::analyze(res.tree, res.buffers, library);
    print_noise("devgan metric:", nrep);
    result_tree = res.tree;
    result_buffers = res.buffers;
    clean = nrep.clean();
  } else if (args.mode == "buffopt" || args.mode == "delayopt") {
    core::ToolOptions opt;
    opt.segmenting.max_segment_length = args.segment;
    opt.vg.max_buffers = args.max_buffers;
    if (args.wire_sizing) opt.vg.wire_widths = lib::default_wire_widths();
    const core::ToolResult res =
        args.mode == "buffopt"
            ? core::run_buffopt(net.tree, library, opt)
            : core::run_delayopt(net.tree, library, args.max_buffers, opt);
    std::printf("%s: inserted %zu buffer(s)%s in %.1f ms\n",
                args.mode.c_str(), res.vg.buffer_count,
                res.vg.wire_widths.empty()
                    ? ""
                    : (", widened " +
                       std::to_string(res.vg.wire_widths.size()) +
                       " wire(s)")
                          .c_str(),
                res.optimize_seconds * 1e3);
    for (const auto& [node, type] : res.vg.buffers.entries())
      std::printf("  %-8s at node %u\n", library.at(type).name.c_str(),
                  node.value());
    print_noise("noise before:", res.noise_before);
    print_noise("noise after:", res.noise_after);
    print_timing("timing before:", res.timing_before);
    print_timing("timing after:", res.timing_after);
    result_tree = res.tree;
    if (args.wire_sizing)
      core::apply_wire_widths(result_tree, res.vg.wire_widths,
                              opt.vg.wire_widths);
    result_buffers = res.vg.buffers;
    clean = res.vg.feasible && res.noise_after.clean();
  } else {
    return usage(argv[0]);
  }

  if (args.golden) {
    const auto grep =
        sim::golden_analyze(result_tree, result_buffers, library, gopt);
    std::printf("%-22s %zu violation(s), worst slack %+.3f V\n",
                "golden transient:", grep.violation_count,
                grep.worst_slack);
    clean = clean && grep.clean();
  }

  if (!args.output.empty()) {
    io::write_net_file(args.output, net.name, result_tree, result_buffers,
                       library);
    std::printf("wrote %s\n", args.output.c_str());
  }
  return clean ? kExitClean : kExitViolations;
}

}  // namespace nbuf::cli
