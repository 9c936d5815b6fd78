// Signoff verification: independent golden-vs-metric re-verification of a
// buffered solution.
//
// The paper validates every BuffOpt/DelayOpt result against IBM's internal
// 3dnoise simulator (TCAD'99 Section VI); this subsystem closes the same
// loop for the repository. Given any buffered tree (e.g. a core::ToolResult
// from the optimizer), verify() re-checks it three independent ways:
//
//   1. golden transient simulation (sim::golden) — the electrical truth,
//   2. the Devgan static metric (noise::analyze) — what the DP optimized,
//   3. Elmore timing (elmore::analyze) — the delay constraint,
//
// joins them per stage leaf, and emits a structured SignoffReport: every
// leaf's metric noise, simulated peak, slacks, the metric-vs-golden
// pessimism ratio, and a typed Violation list judged against configurable
// tolerances. Because the metric is a provable upper bound on the peak
// (Devgan / Theorem 1), a solution the optimizer reports noise-feasible
// must pass golden signoff; a BoundViolation record means the guarantee
// itself broke and is always worth investigating.
//
// Reports serialize to JSON (schema in docs/signoff.md). Whole-workload
// runs live in signoff/workload.hpp.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/tool.hpp"
#include "lib/buffer.hpp"
#include "rct/assignment.hpp"
#include "rct/tree.hpp"
#include "sim/golden.hpp"
#include "util/json.hpp"

namespace nbuf::signoff {

// One failed check. `value` is the measured quantity and `limit` what the
// tolerance allowed, so value - limit (or limit - value for slacks) is the
// size of the excursion; both are in the unit of the kind (volt / second).
enum class ViolationKind {
  GoldenNoise,   // simulated peak exceeds the leaf's noise margin
  MetricNoise,   // Devgan bound exceeds the leaf's noise margin
  Timing,        // Elmore slack below zero at a true sink
  BoundBroken,   // simulated peak exceeds the Devgan bound (Theorem 1!)
  Infeasible,    // the optimizer produced no solution to verify
  NotConverged,  // golden simulation failed its step-size sanity check
};
[[nodiscard]] const char* to_string(ViolationKind kind);
inline constexpr std::size_t kViolationKinds = 6;

struct Violation {
  ViolationKind kind = ViolationKind::GoldenNoise;
  rct::NodeId node;               // offending leaf; invalid for Infeasible
  bool is_buffer_input = false;
  rct::SinkId sink;               // valid iff a true sink
  double value = 0.0;
  double limit = 0.0;
};

// Acceptance tolerances. Slack checks fail when slack < -tolerance; the
// bound check fails when golden peak > metric + bound_slop. Defaults are
// exact signoff (no grace) with a tiny numerical slop on the bound.
struct SignoffTolerances {
  double noise_slack = 0.0;   // volt
  double timing_slack = 0.0;  // second
  double bound_slop = 1e-9;   // volt
};

struct SignoffOptions {
  SignoffTolerances tol;
  // Golden-simulation knobs; callers usually start from
  // sim::golden_options_from(technology). check_convergence inside is
  // honored: a ConvergenceError becomes a NotConverged violation rather
  // than an exception, so one bad net cannot abort a workload run.
  sim::GoldenOptions golden;
};

// One stage leaf (true sink or buffer input pin), all three engines joined.
struct LeafSignoff {
  rct::NodeId node;
  bool is_buffer_input = false;
  rct::SinkId sink;            // valid iff !is_buffer_input
  double margin = 0.0;         // volt
  double metric_noise = 0.0;   // volt — Devgan upper bound
  double metric_slack = 0.0;   // volt
  double golden_peak = 0.0;    // volt — simulated
  double golden_slack = 0.0;   // volt
  double golden_width = 0.0;   // second — pulse width at half peak
  double pessimism = 0.0;      // metric_noise / golden_peak; 0 below 1 mV
  double delay = 0.0;          // second — true sinks only
  double timing_slack = 0.0;   // second — true sinks only
  bool pass = true;            // no violation at this leaf
};

// How conservative the metric was versus golden over a set of leaves (the
// spirit of the paper's Table III): summary statistics plus a fixed-width
// histogram of the metric/golden ratio. Bin 0 holds ratios < 1 (bound
// violations); bin i >= 1 holds [1 + (i-1)*kBinWidth, 1 + i*kBinWidth);
// the last bin additionally absorbs everything above the top edge.
struct PessimismStats {
  static constexpr double kBinWidth = 0.25;
  static constexpr std::size_t kBinCount = 18;  // bin 0 + ratios up to 5.25+

  std::size_t samples = 0;  // leaves with golden peak of 1 mV or more
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;  // of ratios — mean() derives from it, so merging in a
                     // fixed order reproduces bit-identically
  std::array<std::size_t, kBinCount> bins{};

  [[nodiscard]] double mean() const noexcept {
    return samples == 0 ? 0.0 : sum / static_cast<double>(samples);
  }
  void add(double ratio);
  void merge(const PessimismStats& o);
  [[nodiscard]] bool operator==(const PessimismStats& o) const = default;
};

struct SignoffReport {
  std::string net;
  std::size_t buffer_count = 0;
  bool optimizer_feasible = true;  // what the DP claimed (Infeasible check)
  std::vector<LeafSignoff> leaves;
  std::vector<Violation> violations;
  double worst_golden_slack = 0.0;  // volt, min over leaves
  double worst_metric_slack = 0.0;  // volt
  double worst_timing_slack = 0.0;  // second, min over true sinks
  PessimismStats pessimism;
  // GoldenReport::steps_marched / steps_horizon of the golden run (0 when
  // it did not converge). Observability only: not part of the JSON.
  std::size_t golden_steps = 0;
  std::size_t golden_steps_horizon = 0;

  [[nodiscard]] bool pass() const noexcept { return violations.empty(); }
  [[nodiscard]] std::size_t count(ViolationKind kind) const;
};

// Verifies one buffered tree. `buffers` may be empty (signoff of an
// unbuffered net); `name` only labels the report.
[[nodiscard]] SignoffReport verify(const std::string& name,
                                   const rct::RoutingTree& tree,
                                   const rct::BufferAssignment& buffers,
                                   const lib::BufferLibrary& lib,
                                   const SignoffOptions& options);

// Verifies an optimizer result: re-applies any wire-width choices onto a
// copy of the result tree (pass the width library the DP ran with;
// `widths` may be empty when sizing was off), honors vg.feasible (an
// infeasible result yields a single Infeasible violation), then runs the
// three-engine verify above.
[[nodiscard]] SignoffReport verify_result(const std::string& name,
                                          const core::ToolResult& result,
                                          const lib::BufferLibrary& lib,
                                          const lib::WireWidthLibrary& widths,
                                          const SignoffOptions& options);

// verify_result for many results at once: reports[i] equals
// verify_result(names[i], results[i], ...), but the golden stages of every
// feasible result are marched in one pool (sim::golden_analyze's span
// overload), which is what makes signoff of a workload cheap.
[[nodiscard]] std::vector<SignoffReport> verify_results(
    std::span<const std::string_view> names,
    std::span<const core::ToolResult> results, const lib::BufferLibrary& lib,
    const lib::WireWidthLibrary& widths, const SignoffOptions& options);

// JSON rendering of one report (docs/signoff.md documents the schema).
[[nodiscard]] std::string to_json(const SignoffReport& report);

// Appends one report into an in-progress JSON document (the workload
// serializer embeds per-net reports this way); the per-leaf rows are the
// bulky part and can be omitted.
void write_report_json(util::JsonWriter& j, const SignoffReport& report,
                       bool include_leaves);

// Appends the "pessimism" object that reports and workloads share.
void write_pessimism_json(util::JsonWriter& j, const PessimismStats& p);

// Lowers `worst` to `candidate` unless candidate is NaN: a golden quantity
// that was never computed leaves the running minimum alone.
void track_min(double& worst, double candidate);

}  // namespace nbuf::signoff
