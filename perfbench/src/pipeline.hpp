// Helpers the batch workloads (section5, chain512) share: the nbuf options
// they run with, the timed-loop deadline, and the output oracles.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "batch/batch.hpp"
#include "bench.hpp"
#include "signoff/workload.hpp"

namespace perfbench {

// Signoff exactly as `nbuf_cli signoff` runs it: golden options from the
// default technology, default tolerances.
[[nodiscard]] nbuf::signoff::WorkloadOptions signoff_options(
    std::size_t threads);

// Bit-identity of two pipeline outputs: the chosen solution, its slacks and
// count curve (core::same_solution) and every deterministic DP counter.
[[nodiscard]] bool same_result(const nbuf::core::ToolResult& a,
                               const nbuf::core::ToolResult& b);

// Indices i where a[i] and b[i] differ (size mismatch counts every index).
// Solution compares the solutions only: the Reference kernel takes other
// paths, so its DP counters legitimately differ.
enum class Compare { BitIdentical, Solution };
[[nodiscard]] std::vector<std::size_t> mismatches(
    const std::vector<nbuf::core::ToolResult>& a,
    const std::vector<nbuf::core::ToolResult>& b,
    Compare how = Compare::BitIdentical);

// The nbuf-signoff-v1 document with the one wall-clock field zeroed, so
// runs at different thread counts must render the same bytes.
[[nodiscard]] std::string signoff_json(nbuf::signoff::WorkloadSignoff w);

// Signoff oracles on one P-thread signoff of (nets, results): the
// Theorem-1 ledger holds, and the 1-thread signoff renders the same JSON.
void check_signoff(Outcome& out, const std::vector<nbuf::batch::BatchNet>& nets,
                   const std::vector<nbuf::core::ToolResult>& results,
                   const nbuf::lib::BufferLibrary& lib,
                   const nbuf::signoff::WorkloadSignoff& at_p);

// Runs `setup` cfg.scale.setup_repeats times and returns the median wall
// time; the state the last call left behind is what the run uses.
// `reset`, untimed, undoes the previous repetition first (so deleting the
// last repetition's files or stopping its server is not setup time).
[[nodiscard]] double timed_setup(const RunConfig& cfg,
                                 const std::function<void()>& setup,
                                 const std::function<void()>& reset = {});

// The timed loop's stop rule (RunConfig::hard_cap_seconds).
class Deadline {
 public:
  explicit Deadline(const RunConfig& cfg) : cfg_(cfg), t0_(Clock::now()) {}
  [[nodiscard]] bool more(std::size_t latency_samples) const {
    const double t = seconds_since(t0_);
    if (t >= cfg_.hard_cap_seconds()) return false;
    return t < cfg_.seconds ||
           latency_samples < cfg_.scale.min_latency_samples;
  }

 private:
  const RunConfig& cfg_;
  Clock::time_point t0_;
};

// Adds req_p50_ms and req_p99_ms; a p99 without ten samples beyond it
// marks the run broken.
void add_latency_metrics(Outcome& out, const std::vector<double>& ms);

// What a batch workload's timed loop measured, and its end-to-end metrics.
struct BatchTally {
  std::vector<double> tput_p, tput_1, tput_so;  // nets/s, one per pass
  std::vector<double> latency_ms;               // one per operation
  double busy_s = 0.0;     // time inside the timed passes
  std::uint64_t ops = 0;   // operations those passes completed

  void report(Outcome& out, double setup_s, double rss_mb) const;
};

}  // namespace perfbench
