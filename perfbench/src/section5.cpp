// section5: the paper's Section V testbench through the `nbuf_cli batch`
// and `nbuf_cli signoff` user flow.
//
// Setup writes scale.testbenches independent draws of the seeded 500-net
// netgen testbench as .net files: one draw's total work moves ~10% with
// the seed (a few large nets dominate it), four draws halve that. Each
// timed round then runs over all of them
//   A  parse every file serially (batch::load_directory) + BuffOpt on the
//      BatchEngine at P threads                      -> nets_per_s
//   S  signoff::run_workload on A's results at P     -> signoff_nets_per_s
//      (A + S wall: parse + optimize + signoff)
//   B  one net at a time: io::read_net_file + a 1-thread BatchEngine run
//                                                    -> nets_per_s_1t and
//      the per-net latency samples of req_p50_ms / req_p99_ms
// Every pass is checked against the first A pass outside the timers; the
// Reference-kernel and signoff oracles run after the timed loop.
#include <filesystem>

#include "bench.hpp"
#include "inputs.hpp"
#include "io/netfile.hpp"
#include "netgen/netgen.hpp"
#include "pipeline.hpp"

namespace perfbench {

using namespace nbuf;

std::vector<std::string> write_section5_inputs(const RunConfig& cfg,
                                               const lib::BufferLibrary& lib) {
  std::vector<batch::BatchNet> nets;
  for (std::size_t k = 0; k < cfg.scale.testbenches; ++k) {
    netgen::TestbenchOptions o;
    o.net_count = cfg.scale.section5_nets;
    o.seed = sub_seed(cfg.seed, 10 + k);
    for (batch::BatchNet& n :
         batch::from_generated(netgen::generate_testbench(lib, o))) {
      n.name = "tb" + std::to_string(k) + "_" + n.name;
      nets.push_back(std::move(n));
    }
  }
  return write_net_files(
      nets, (std::filesystem::path(cfg.work_dir) / "section5").string(), lib);
}

Outcome run_section5(const RunConfig& cfg) {
  Outcome out;
  const lib::BufferLibrary lib = lib::default_library();
  const std::string dir =
      (std::filesystem::path(cfg.work_dir) / "section5").string();
  std::vector<std::string> files;
  const double setup_s = timed_setup(
      cfg, [&] { files = write_section5_inputs(cfg, lib); },
      [&] { std::filesystem::remove_all(dir); });
  const std::size_t n = files.size();

  batch::BatchOptions bo;
  bo.threads = cfg.threads;
  const batch::BatchEngine engine_p(bo);
  bo.threads = 1;
  const batch::BatchEngine engine_1(bo);
  const signoff::WorkloadOptions so_p = signoff_options(cfg.threads);

  BatchTally tally;
  // Outputs of the first round: every later pass must reproduce them.
  std::vector<batch::BatchNet> nets;
  std::vector<core::ToolResult> first;
  signoff::WorkloadSignoff first_so;
  std::string first_so_json;

  const Deadline deadline(cfg);
  while (deadline.more(tally.latency_ms.size())) {
    batch::BatchResult a;
    signoff::WorkloadSignoff so;
    std::vector<core::ToolResult> b(n);
    double a_s = 0.0, s_s = 0.0, b_s = 0.0;
    try {
      auto t0 = Clock::now();
      std::vector<batch::BatchNet> loaded = batch::load_directory(dir, lib);
      a = engine_p.run(loaded, lib);
      a_s = seconds_since(t0);

      t0 = Clock::now();
      so = signoff::run_workload(loaded, a.results, lib, so_p);
      s_s = seconds_since(t0);

      for (std::size_t i = 0; i < n; ++i) {
        t0 = Clock::now();
        io::NetFile f = io::read_net_file(files[i], lib);
        std::vector<batch::BatchNet> one;
        one.push_back(batch::BatchNet{std::move(f.name), std::move(f.tree)});
        b[i] = std::move(engine_1.run(one, lib).results.front());
        const double dt = seconds_since(t0);
        b_s += dt;
        tally.latency_ms.push_back(dt * 1e3);
      }
      if (nets.empty()) nets = std::move(loaded);
    } catch (const std::exception& e) {
      out.attempted += 3 * n;
      out.fail(3 * n, std::string("section5 pass threw: ") + e.what());
      break;
    }
    out.attempted += 3 * n;
    tally.ops += 3 * n;
    tally.busy_s += a_s + s_s + b_s;
    tally.tput_p.push_back(static_cast<double>(n) / a_s);
    tally.tput_so.push_back(static_cast<double>(n) / (a_s + s_s));
    tally.tput_1.push_back(static_cast<double>(n) / b_s);

    // Determinism checks, outside every timer.
    if (first.empty()) {
      first = a.results;
      first_so = so;
      first_so_json = signoff_json(so);
    } else {
      const auto bad = mismatches(first, a.results);
      if (!bad.empty())
        out.fail(bad.size(), "P-thread pass differs from the first pass");
      if (signoff_json(so) != first_so_json)
        out.fail(n, "signoff pass differs from the first signoff pass");
    }
    const auto bad_1t = mismatches(first, b);
    if (!bad_1t.empty())
      out.fail(bad_1t.size(), "1-thread results differ from P-thread results");
  }
  const double rss = peak_rss_mb();

  // Oracles, untimed.
  if (!first.empty()) {
    batch::BatchOptions ro;
    ro.threads = cfg.threads;
    ro.tool.vg.kernel = core::VgKernel::Reference;
    const batch::BatchResult ref = batch::BatchEngine(ro).run(nets, lib);
    const auto bad = mismatches(first, ref.results, Compare::Solution);
    if (!bad.empty())
      out.fail(bad.size(), "fast kernel differs from VgKernel::Reference");
    check_signoff(out, nets, first, lib, first_so);
  }
  std::filesystem::remove_all(dir);

  tally.report(out, setup_s, rss);
  return out;
}

}  // namespace perfbench
