// Golden noise analysis: detailed transient simulation of every stage of a
// (possibly buffered) net under saturated-ramp aggressor excitation.
//
// This is the repository's stand-in for the paper's 3dnoise tool: an
// electrical analysis independent of the Devgan metric, used to (a) verify
// that nets the metric calls clean are actually clean, and (b) demonstrate
// the metric's conservatism (metric peak >= simulated peak).
//
// Model, matching the metric's estimation-mode assumptions (Section II-B):
// one aggressor fully coupled along every wire with coupling ratio lambda;
// the aggressor switches as an ideal saturated ramp; the victim driver
// holds its output quiet through its linear output resistance; inserted
// buffers are restoring (each stage simulates independently with its buffer
// input pins as capacitive leaves). Victim wires are subdivided into short
// pi-sections, so the distributed RC line is modeled faithfully; each
// stage's tree system is factored once by TreeSolver, and the backward-Euler
// march steps several stages in lockstep (march_stages below): the O(n)
// solve of one stage is a serial chain, and stages are independent, so the
// interleaved sweeps keep the core busy. Every node sees the same IEEE
// operations in the same order in any pool, so the numbers do not depend on
// which stages share a march.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <variant>
#include <vector>

#include "lib/technology.hpp"
#include "rct/stage.hpp"
#include "sim/stage_circuit.hpp"
#include "sim/waveform.hpp"

namespace nbuf::sim {

// Settling horizon: t0 + rise + kSettleTimeConstants * stage tau. A
// stage's march ends earlier, exactly, once no reported peak or width can
// change any more (docs/signoff.md, "How the march ends").
inline constexpr double kSettleTimeConstants = 8.0;
// The step-size sanity check (GoldenOptions::check_convergence) accepts a
// leaf whose coarse and dt/2 peaks differ by at most
// max(kConvergenceAtol, kConvergenceRtol * fine peak).
inline constexpr double kConvergenceRtol = 0.02;  // relative peak tolerance
inline constexpr double kConvergenceAtol = 1e-4;  // volt — near-zero peaks

struct GoldenOptions {
  double coupling_ratio = 0.0;  // lambda — fraction of wire cap that couples
  SaturatedRamp aggressor;      // the switching neighbor
  double section_length = 100.0;    // µm — pi-section granularity
  // timestep = rise / steps_per_rise. Integral, so the ramp ends exactly
  // on a step boundary at this dt and at dt/2 alike.
  double steps_per_rise = 200.0;
  // Step-size sanity check: every stage is re-simulated with the timestep
  // halved, and each leaf's peak must agree with the coarse run within the
  // tolerance above. A disagreement means the backward-Euler march has not
  // converged at this dt, i.e. the reported peaks are discretization
  // artifacts — golden_analyze throws ConvergenceError instead of
  // returning untrustworthy numbers. Doubles the simulation cost; meant
  // for signoff runs, off by default.
  bool check_convergence = false;

  // Throws std::invalid_argument unless every field is finite, with
  // steps_per_rise an integer >= 1, section_length > 0,
  // 0 <= coupling_ratio < 1, aggressor vdd > 0, rise > 0 and t0 >= 0.
  // Every golden entry point calls it.
  void validate() const;
};

// Estimation-mode options derived from the process technology.
[[nodiscard]] GoldenOptions golden_options_from(const lib::Technology& tech);

// With GoldenOptions::check_convergence set: the first leaf (stages in
// decomposition order, each stage's leaves in stage.sinks order) whose peak
// moved by more than the tolerance when the timestep was halved.
struct NotConverged {
  rct::NodeId node;          // the leaf whose peak failed to converge
  double coarse_peak = 0.0;  // volt, at the configured dt
  double fine_peak = 0.0;    // volt, at dt / 2
};

// Thrown by the single-net golden_analyze and golden_stage_peaks in place
// of returning a NotConverged.
class ConvergenceError : public std::runtime_error {
 public:
  explicit ConvergenceError(const NotConverged& failure);
  rct::NodeId node;
  double coarse_peak = 0.0;
  double fine_peak = 0.0;
};

struct GoldenLeaf {
  rct::NodeId node;
  bool is_buffer_input = false;
  rct::SinkId sink;      // valid iff !is_buffer_input
  double peak = 0.0;     // volt — simulated peak noise
  double margin = 0.0;   // volt
  double slack = 0.0;    // margin - peak
  double width = 0.0;    // second — pulse width at half the peak
};

struct GoldenReport {
  std::vector<GoldenLeaf> leaves;
  std::vector<GoldenLeaf> sinks;  // true sinks only, indexed by SinkId
  double worst_slack = 0.0;
  std::size_t violation_count = 0;
  // Backward-Euler steps over all stages (dt/2 reruns included): marched,
  // and what marching every stage to its settling horizon would take.
  std::size_t steps_marched = 0;
  std::size_t steps_horizon = 0;
  [[nodiscard]] bool clean() const noexcept { return violation_count == 0; }
};

// Simulates every stage of tree+buffers and reports per-leaf peak noise.
// Throws ConvergenceError when the convergence check fails.
[[nodiscard]] GoldenReport golden_analyze(const rct::RoutingTree& tree,
                                          const rct::BufferAssignment& buffers,
                                          const lib::BufferLibrary& lib,
                                          const GoldenOptions& options);

// One net of a pooled golden run; the pointees must outlive the call.
struct GoldenNet {
  const rct::RoutingTree* tree = nullptr;
  const rct::BufferAssignment* buffers = nullptr;
  const lib::BufferLibrary* lib = nullptr;
};

// What golden_analyze finds for one net: its report, or the convergence
// failure the single-net overload throws.
using GoldenOutcome = std::variant<GoldenReport, NotConverged>;

// golden_analyze over many nets, with the stages of all of them (and their
// dt/2 reruns) marched in one pool. outcomes[i] is exactly what the
// single-net overload returns or throws for nets[i].
[[nodiscard]] std::vector<GoldenOutcome> golden_analyze(
    std::span<const GoldenNet> nets, const GoldenOptions& options);

[[nodiscard]] GoldenReport golden_analyze_unbuffered(
    const rct::RoutingTree& tree, const GoldenOptions& options);

// Peak simulated noise at every node of a single stage, keyed by tree node
// in stage.nodes order (wire-interior section nodes are not reported).
// Exposed for tests that cross-check the tree solver against the dense
// engine.
[[nodiscard]] std::vector<std::pair<rct::NodeId, double>> golden_stage_peaks(
    const rct::RoutingTree& tree, const rct::Stage& stage,
    const GoldenOptions& options);

// --- the lane march ----------------------------------------------------------

// Stages stepped in lockstep. One stage's solve is two serial chains (the
// forward fold leaves-to-root, the backward divide root-to-leaves) bound by
// latency, so interleaving independent stages fills the pipeline
// (EXPERIMENTS.md F-R measured 2, 4, 6 and 8).
inline constexpr std::size_t kMarchLanes = 8;

// One stage to march under the options' aggressor.
struct StageMarch {
  const StageCircuit* circuit = nullptr;
  double driver_resistance = 0.0;  // ohm, > 0
  double steps_per_rise = 0.0;     // timestep = aggressor.rise / this;
                                   // an integer >= 1
  std::vector<std::size_t> peak_nodes;   // sim nodes whose peaks are reported
  std::vector<std::size_t> trace_nodes;  // sim nodes whose widths are measured
};

struct MarchResult {
  // Per sim node. Final for peak_nodes and trace_nodes only: the march
  // stops once no reported peak or width can change (docs/signoff.md, "How
  // the march ends"). width is set for trace_nodes, 0 elsewhere.
  std::vector<double> peak;
  std::vector<double> width;
  std::size_t steps_marched = 0;
  std::size_t steps_horizon = 0;  // steps to the fixed settling horizon
};

// Marches every stage with backward Euler, several at a time in lockstep;
// results[i] belongs to stages[i] and does not depend on the pool.
[[nodiscard]] std::vector<MarchResult> march_stages(
    std::span<const StageMarch> stages, const GoldenOptions& options);

}  // namespace nbuf::sim
