// figI: fast Van Ginneken kernel A/B speedup.
//
// Times the reference (seed) kernel against the fast kernel (sort-free
// pruning, read-view insertion) on
//
//   * figD-style serial chains: two-pin nets segmented at 500 µm with 512
//     candidate sites (the acceptance workload, n >= 500), in both the
//     noise-constrained BuffOpt shape and the delay-only shape, plus a
//     wire-sizing variant (the one path where the fast kernel still sorts);
//   * a netgen batch workload through BatchEngine at 1 and 8 threads, both
//     kernels, so the speedup is also reported end-to-end.
//
// Every pairing cross-checks bit-identity (slack bits, buffer counts, DP
// counters) and the JSON carries the verdict. Output is machine-readable:
//
//   figI_kernel_speedup [--quick] [--out BENCH_vg_kernel.json]
//
// writes {"workloads":[{name, sites|nets, threads, ref_seconds,
// fast_seconds, speedup, identical_results}, ...], "phases": {...}} (the
// phases object is a per-span wall-time breakdown of one traced fast-kernel
// batch run — bench/common/workload.hpp write_phases shape) plus a summary
// line per workload on stdout. An --out path that cannot be opened exits 2
// before any timed run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "batch/batch.hpp"
#include "common/workload.hpp"
#include "core/vanginneken.hpp"
#include "obs/trace.hpp"
#include "lib/wire.hpp"
#include "seg/segment.hpp"
#include "steiner/builders.hpp"
#include "util/units.hpp"

namespace {

using namespace nbuf;
using namespace nbuf::units;
using Clock = std::chrono::steady_clock;

rct::Driver drv() { return rct::Driver{"d", 150.0, 30 * ps}; }

rct::SinkInfo snk() {
  rct::SinkInfo s;
  s.name = "s";
  s.cap = 15.0 * fF;
  s.noise_margin = 0.8;
  s.required_arrival = 2.0 * ns;
  return s;
}

struct Row {
  std::string name;
  std::size_t sites = 0;    // candidate sites (serial rows)
  std::size_t nets = 0;     // workload size (batch rows)
  unsigned threads = 1;
  double ref_seconds = 0.0;
  double fast_seconds = 0.0;
  bool identical = false;

  [[nodiscard]] double speedup() const {
    return fast_seconds > 0.0 ? ref_seconds / fast_seconds : 0.0;
  }
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Best-of-`reps` wall time for one kernel on one segmented net; also
// returns the result of the last run for the identity cross-check.
double time_serial(const rct::RoutingTree& segmented,
                   const lib::BufferLibrary& library, core::VgOptions opt,
                   core::VgKernel kernel, int reps, core::VgResult* out) {
  opt.kernel = kernel;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    auto res = core::optimize(segmented, library, opt);
    const double dt = seconds_since(t0);
    if (r == 0 || dt < best) best = dt;
    if (out != nullptr) *out = std::move(res);
  }
  return best;
}

bool same_result(const core::VgResult& a, const core::VgResult& b) {
  return a.feasible == b.feasible && a.slack == b.slack &&
         a.buffer_count == b.buffer_count &&
         a.stats.candidates_generated == b.stats.candidates_generated &&
         a.stats.pruned_inferior == b.stats.pruned_inferior &&
         a.stats.pruned_infeasible == b.stats.pruned_infeasible &&
         a.stats.merged == b.stats.merged &&
         a.stats.peak_list_size == b.stats.peak_list_size;
}

Row serial_row(const std::string& name, std::size_t sites,
               const lib::BufferLibrary& library, const core::VgOptions& opt,
               int reps) {
  auto t = steiner::make_two_pin(500.0 * static_cast<double>(sites), drv(),
                                 snk(), lib::default_technology());
  seg::segment(t, {500.0});
  Row row;
  row.name = name;
  row.sites = sites;
  core::VgResult ref, fast;
  row.ref_seconds =
      time_serial(t, library, opt, core::VgKernel::Reference, reps, &ref);
  row.fast_seconds =
      time_serial(t, library, opt, core::VgKernel::Fast, reps, &fast);
  row.identical = same_result(fast, ref);
  return row;
}

double time_batch(const std::vector<batch::BatchNet>& nets,
                  const lib::BufferLibrary& library, unsigned threads,
                  core::VgKernel kernel, batch::BatchSummary* out) {
  batch::BatchOptions opt;
  opt.threads = threads;
  opt.tool.vg.kernel = kernel;
  const batch::BatchEngine engine(opt);
  const auto res = engine.run(nets, library);
  if (out != nullptr) *out = res.summary;
  return res.summary.wall_seconds;
}

Row batch_row(const std::vector<batch::BatchNet>& nets,
              const lib::BufferLibrary& library, unsigned threads) {
  Row row;
  row.name = "batch_buffopt_t" + std::to_string(threads);
  row.nets = nets.size();
  row.threads = threads;
  batch::BatchSummary ref, fast;
  row.ref_seconds =
      time_batch(nets, library, threads, core::VgKernel::Reference, &ref);
  row.fast_seconds =
      time_batch(nets, library, threads, core::VgKernel::Fast, &fast);
  row.identical =
      ref.buffers_inserted == fast.buffers_inserted &&
      ref.feasible == fast.feasible &&
      ref.stats.candidates_generated == fast.stats.candidates_generated &&
      ref.stats.pruned_inferior == fast.stats.pruned_inferior &&
      ref.stats.merged == fast.stats.merged;
  return row;
}

// The --out document: {"bench", "workloads": [row, ...], "phases": {...}}.
util::JsonWriter document(const std::vector<Row>& rows,
                          const obs::TraceData& trace) {
  util::JsonWriter j;
  j.begin_object();
  j.field("bench", std::string_view("figI_kernel_speedup"));
  j.key("workloads");
  j.begin_array();
  for (const Row& r : rows) {
    j.begin_object();
    j.field("name", std::string_view(r.name));
    j.field("sites", r.sites);
    j.field("nets", r.nets);
    j.field("threads", static_cast<std::size_t>(r.threads));
    j.field("ref_seconds", r.ref_seconds);
    j.field("fast_seconds", r.fast_seconds);
    j.field("speedup", r.speedup());
    j.field("identical_results", r.identical);
    j.end_object();
  }
  j.end_array();
  j.key("phases");
  bench::write_phases(j, trace);
  j.end_object();
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bench::TimingArgs args;
  args.out = "BENCH_vg_kernel.json";
  if (const int rc = bench::parse_timing_args(argc, argv, args); rc != 0)
    return rc;

  const auto library = lib::default_library();
  const std::size_t sites = args.quick ? 128 : 512;
  const int reps = args.quick ? 1 : 3;
  std::vector<Row> rows;

  {
    core::VgOptions opt;  // BuffOpt shape: noise-constrained
    opt.max_buffers = 24;
    rows.push_back(serial_row("chain_buffopt", sites, library, opt, reps));
  }
  {
    core::VgOptions opt;
    opt.noise_constraints = false;
    opt.max_buffers = 24;
    rows.push_back(serial_row("chain_delayopt", sites, library, opt, reps));
  }
  {
    core::VgOptions opt;  // wire sizing: the fork path that still sorts
    opt.max_buffers = 24;
    opt.wire_widths = lib::default_wire_widths();
    rows.push_back(serial_row("chain_wiresizing", sites / 4, library, opt,
                              reps));
  }

  const auto nets = bench::sized_testbench(library, args.quick ? 60 : 500);
  for (const unsigned threads : {1u, 8u})
    rows.push_back(batch_row(nets, library, threads));

  // One traced fast-kernel run for the per-phase breakdown in the JSON
  // (kept out of the timed A/B pairs above so tracing cannot skew them).
  obs::TraceData trace;
  {
    obs::TraceRecording rec(obs::TraceLevel::Phase);
    time_batch(nets, library, 8, core::VgKernel::Fast, nullptr);
    trace = rec.stop();
  }

  std::printf("== figI: fast-kernel speedup (reference vs fast) ==\n");
  bool all_identical = true;
  for (const Row& r : rows) {
    all_identical = all_identical && r.identical;
    std::printf(
        "%-20s  sites=%-4zu nets=%-4zu threads=%u  ref=%.4fs fast=%.4fs  "
        "speedup=%.2fx  identical=%s\n",
        r.name.c_str(), r.sites, r.nets, r.threads, r.ref_seconds,
        r.fast_seconds, r.speedup(), r.identical ? "yes" : "NO");
  }
  if (!bench::write_document(args, document(rows, trace))) return 2;
  if (!all_identical) {
    std::printf("FAIL: kernels disagree\n");
    return 1;
  }
  return 0;
}
