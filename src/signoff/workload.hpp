// Whole-workload signoff: every net of a batch run independently
// re-verified, in parallel, with deterministic aggregates.
//
// Runs on the batch engine's fan-out primitive
// (batch::parallel_for_index): workers claim fixed chunks of consecutive
// nets from a shared counter, march each chunk's golden stages in one pool
// (signoff::verify_results), and write each SignoffReport into its input
// slot. Every aggregate below is reduced serially in index order after the
// pool joins — so the whole WorkloadSignoff (including the pessimism
// histogram that quantifies how conservative the Devgan metric is versus
// golden, the spirit of the paper's Table III) is bit-identical for any
// thread count.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "batch/batch.hpp"
#include "signoff/signoff.hpp"

namespace nbuf::obs {
class MetricsRegistry;
}

namespace nbuf::signoff {

struct WorkloadOptions {
  std::size_t threads = 0;  // 0 = hardware concurrency
  SignoffOptions signoff;
  // The width library the optimizer ran with (empty when sizing was off);
  // needed to materialize sized results before re-verification.
  lib::WireWidthLibrary wire_widths;
};

struct WorkloadSignoff {
  // reports[i] verifies results[i] / nets[i] — input order, always.
  std::vector<SignoffReport> reports;
  std::size_t net_count = 0;
  std::size_t passed = 0;      // nets with zero violations
  std::size_t violations = 0;  // violation records over all nets
  std::array<std::size_t, kViolationKinds> by_kind{};  // ViolationKind idx
  // The Theorem-1 ledger: solutions the Devgan metric certifies
  // noise-clean (optimizer feasible with zero MetricNoise records), and
  // how many of those golden signoff confirms (no GoldenNoise and no
  // NotConverged record). The metric upper-bounds the golden peak, so
  // these two must be equal on every workload, in every mode — delayopt
  // nets the metric itself flags are excluded from the ledger rather
  // than counted as bound breaks.
  std::size_t feasible = 0;
  std::size_t feasible_golden_clean = 0;
  double worst_golden_slack = 0.0;  // volt, min over converged nets
  double worst_metric_slack = 0.0;  // volt
  double worst_timing_slack = 0.0;  // second
  PessimismStats pessimism;         // merged over all nets, index order
  // Golden steps marched vs the fixed-horizon count, summed over nets;
  // metrics counters only, not part of the JSON.
  std::size_t golden_steps = 0;
  std::size_t golden_steps_horizon = 0;
  double wall_seconds = 0.0;        // end-to-end verify wall time

  [[nodiscard]] bool pass() const noexcept { return violations == 0; }
  [[nodiscard]] double nets_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(net_count) / wall_seconds
               : 0.0;
  }
};

// Verifies results[i] against nets[i] for every i. The two vectors must be
// the same length (results as produced by batch::BatchEngine::run on the
// same nets).
[[nodiscard]] WorkloadSignoff run_workload(
    const std::vector<batch::BatchNet>& nets,
    const std::vector<core::ToolResult>& results,
    const lib::BufferLibrary& lib, const WorkloadOptions& options);

// JSON rendering (docs/signoff.md): workload summary + per-net reports.
// Per-leaf rows are included only when `include_leaves` is set — they
// dominate the document size on big workloads.
[[nodiscard]] std::string to_json(const WorkloadSignoff& workload,
                                  bool include_leaves = false);

// Folds the workload aggregates into a MetricsRegistry: pass/violation
// totals and the pessimism histogram bins as "signoff.*" counters and the
// golden step counts as "sim.golden_steps*" counters (all
// schedule-independent), slack extrema and throughput as gauges.
void record_metrics(obs::MetricsRegistry& reg, const WorkloadSignoff& w);

}  // namespace nbuf::signoff
