#include "pipeline.hpp"

#include <string>

#include "core/incremental.hpp"
#include "lib/technology.hpp"
#include "sim/golden.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace nbuf;

signoff::WorkloadOptions signoff_options(std::size_t threads) {
  signoff::WorkloadOptions o;
  o.threads = threads;
  o.signoff.golden = sim::golden_options_from(lib::default_technology());
  return o;
}

bool same_result(const core::ToolResult& a, const core::ToolResult& b) {
  return core::same_solution(a.vg, b.vg) &&
         a.vg.stats.same_counters(b.vg.stats);
}

std::vector<std::size_t> mismatches(const std::vector<core::ToolResult>& a,
                                    const std::vector<core::ToolResult>& b,
                                    Compare how) {
  std::vector<std::size_t> bad;
  const std::size_t n = a.size() > b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i)
    if (i >= a.size() || i >= b.size() ||
        !(how == Compare::Solution ? core::same_solution(a[i].vg, b[i].vg)
                                   : same_result(a[i], b[i])))
      bad.push_back(i);
  return bad;
}

std::string signoff_json(signoff::WorkloadSignoff w) {
  w.wall_seconds = 0.0;
  return signoff::to_json(w);
}

void check_signoff(Outcome& out, const std::vector<batch::BatchNet>& nets,
                   const std::vector<core::ToolResult>& results,
                   const lib::BufferLibrary& lib,
                   const signoff::WorkloadSignoff& at_p) {
  if (at_p.feasible != at_p.feasible_golden_clean)
    out.fail(at_p.feasible - at_p.feasible_golden_clean,
             "Theorem-1 ledger broken: " + std::to_string(at_p.feasible) +
                 " metric-certified nets, " +
                 std::to_string(at_p.feasible_golden_clean) +
                 " golden-clean");
  const signoff::WorkloadSignoff at_1 =
      signoff::run_workload(nets, results, lib, signoff_options(1));
  if (signoff_json(at_1) != signoff_json(at_p))
    out.broken("signoff JSON differs between 1 thread and P threads");
}

double timed_setup(const RunConfig& cfg, const std::function<void()>& setup,
                   const std::function<void()>& reset) {
  std::vector<double> walls;
  const std::size_t reps = cfg.scale.setup_repeats == 0
                               ? 1
                               : cfg.scale.setup_repeats;
  for (std::size_t r = 0; r < reps; ++r) {
    if (r > 0 && reset) reset();
    const auto t0 = Clock::now();
    setup();
    walls.push_back(seconds_since(t0));
  }
  return median(walls);
}

void add_latency_metrics(Outcome& out, const std::vector<double>& ms) {
  const Percentile p50 = percentile(ms, 0.50);
  const Percentile p99 = percentile(ms, 0.99);
  if (!p99.valid)
    out.broken("req_p99_ms has only " + std::to_string(p99.beyond) +
               " samples beyond it (" + std::to_string(p99.samples) +
               " taken)");
  out.add("req_p50_ms", p50.value, "ms");
  out.add("req_p99_ms", p99.value, "ms");
}

void BatchTally::report(Outcome& out, double setup_s, double rss_mb) const {
  out.add("setup_s", setup_s, "s");
  out.add("nets_per_s", median(tput_p), "nets/s");
  out.add("nets_per_s_1t", median(tput_1), "nets/s");
  out.add("signoff_nets_per_s", median(tput_so), "nets/s");
  add_latency_metrics(out, latency_ms);
  out.add("req_per_s", busy_s > 0.0 ? static_cast<double>(ops) / busy_s : 0.0,
          "req/s");
  out.add("peak_rss_mb", rss_mb, "MB");
}

}  // namespace perfbench
