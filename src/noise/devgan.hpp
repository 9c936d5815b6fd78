// Devgan coupled-noise metric (Section II-B; Devgan, ICCAD 1997).
//
// Aggressor nets inject current into the victim through coupling
// capacitance: a wire w coupled to aggressors with slopes mu_j and
// coupling-to-wire-capacitance ratios lambda_j carries
//   i_w = sum_j lambda_j * mu_j * C_w                              (eq. 6)
// (stored in rct::Wire::coupling_current). With
//   I(v)      = total downstream current at v                      (eq. 7)
//   Noise(w)  = R_w * (i_w / 2 + I(v)),  w = (u, v)                (eq. 8)
// (the pi-model places half of w's own current at its far end), the peak
// noise bound at a sink s whose nearest upstream restoring gate is g:
//   Noise(g->s) = R_g * I(g) + sum_{w in path(g,s)} Noise(w)       (eq. 9)
// Buffers are restoring, so noise never crosses a stage boundary. The
// metric mirrors Elmore delay exactly: current <-> capacitance,
// noise <-> delay, noise margin <-> RAT, noise slack <-> slack.
#pragma once

#include <unordered_map>
#include <vector>

#include "rct/stage.hpp"

namespace nbuf::noise {

// Noise at one stage leaf (a true sink or a buffer input pin).
struct LeafNoise {
  rct::NodeId node;
  bool is_buffer_input = false;
  rct::SinkId sink;          // valid iff !is_buffer_input
  double noise = 0.0;        // volt — Devgan bound at the leaf
  double margin = 0.0;       // volt — NM of the pin
  double slack = 0.0;        // volt — margin - noise
};

struct NoiseReport {
  std::vector<LeafNoise> leaves;   // every stage leaf, all stages
  std::vector<LeafNoise> sinks;    // true sinks only, indexed by SinkId
  double worst_slack = 0.0;        // min over all leaves
  std::size_t violation_count = 0; // leaves with slack < 0
  [[nodiscard]] bool clean() const noexcept { return violation_count == 0; }
};

// Total stage-local downstream current I(v) (eq. 7) for every node of the
// stage. Buffer-input leaves contribute zero current (their subtree belongs
// to the next stage).
[[nodiscard]] std::unordered_map<rct::NodeId, double> stage_currents(
    const rct::RoutingTree& tree, const rct::Stage& stage);

// Devgan noise from the stage's driving gate to every node of the stage
// (eq. 9): R_drv * I(root) plus the per-wire terms of eq. 8 down the path.
[[nodiscard]] std::unordered_map<rct::NodeId, double> stage_noise(
    const rct::RoutingTree& tree, const rct::Stage& stage);

// Full noise analysis of a buffered tree: every stage independently.
[[nodiscard]] NoiseReport analyze(const rct::RoutingTree& tree,
                                  const rct::BufferAssignment& buffers,
                                  const lib::BufferLibrary& lib);

// Convenience: the unbuffered tree (single stage).
[[nodiscard]] NoiseReport analyze_unbuffered(const rct::RoutingTree& tree);

// Noise slack NS(v) (eq. 12) of every node of the *unbuffered* tree:
// NS(sink) = NM(sink); upstream,
//   NS(u) = min over children v of ( NS(v) - Noise((u,v)) ).
// The downstream noise constraints hold iff R_g * I(g) <= NS(g) at the
// driving gate g. A test oracle: computed independently of the DP, which
// carries its own noise slacks; no product code calls it.
[[nodiscard]] std::unordered_map<rct::NodeId, double> noise_slacks(
    const rct::RoutingTree& tree);

}  // namespace nbuf::noise
