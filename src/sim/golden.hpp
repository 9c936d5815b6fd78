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
// pi-sections, so the distributed RC line is modeled faithfully; the
// resulting tree system is solved by the O(n) TreeSolver per timestep.
#pragma once

#include <stdexcept>
#include <vector>

#include "lib/technology.hpp"
#include "rct/stage.hpp"
#include "sim/waveform.hpp"

namespace nbuf::sim {

struct GoldenOptions {
  double coupling_ratio = 0.0;  // lambda — fraction of wire cap that couples
  SaturatedRamp aggressor;      // the switching neighbor
  double section_length = 100.0;    // µm — pi-section granularity
  double steps_per_rise = 200.0;    // timestep = rise / steps_per_rise
  // Settling horizon: t0 + rise + k * stage tau. A stage's march ends
  // earlier, exactly, once no reported peak or width can change any more
  // (docs/signoff.md, "How the march ends").
  double settle_time_constants = 8.0;
  // Step-size sanity check: every stage is re-simulated with the timestep
  // halved, and each leaf's peak must agree with the coarse run within
  // max(convergence_atol, convergence_rtol * peak). A disagreement means
  // the backward-Euler march has not converged at this dt, i.e. the
  // reported peaks are discretization artifacts — golden_analyze throws
  // ConvergenceError instead of returning untrustworthy numbers. Doubles
  // the simulation cost; meant for signoff runs, off by default.
  bool check_convergence = false;
  double convergence_rtol = 0.02;   // relative peak tolerance
  double convergence_atol = 1e-4;   // volt — floor for near-zero peaks
};

// Estimation-mode options derived from the process technology.
[[nodiscard]] GoldenOptions golden_options_from(const lib::Technology& tech);

// Thrown by golden_analyze when GoldenOptions::check_convergence is set and
// halving the timestep moved some leaf's peak by more than the tolerance.
class ConvergenceError : public std::runtime_error {
 public:
  ConvergenceError(rct::NodeId node, double coarse_peak, double fine_peak);
  rct::NodeId node;          // the leaf whose peak failed to converge
  double coarse_peak = 0.0;  // volt, at the configured dt
  double fine_peak = 0.0;    // volt, at dt / 2
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
[[nodiscard]] GoldenReport golden_analyze(const rct::RoutingTree& tree,
                                          const rct::BufferAssignment& buffers,
                                          const lib::BufferLibrary& lib,
                                          const GoldenOptions& options);

[[nodiscard]] GoldenReport golden_analyze_unbuffered(
    const rct::RoutingTree& tree, const GoldenOptions& options);

// Peak simulated noise at every node of a single stage, keyed by tree node
// in stage.nodes order (wire-interior section nodes are not reported).
// Exposed for tests that cross-check the tree solver against the dense
// engine.
[[nodiscard]] std::vector<std::pair<rct::NodeId, double>> golden_stage_peaks(
    const rct::RoutingTree& tree, const rct::Stage& stage,
    const GoldenOptions& options);

}  // namespace nbuf::sim
