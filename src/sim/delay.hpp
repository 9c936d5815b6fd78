// Golden step-delay analysis: transient 50% crossing times through a
// buffered tree.
//
// The third tier of the delay-fidelity ladder (Elmore bound -> moment-based
// D2M -> transient simulation), used to quantify how pessimistic the Elmore
// model the paper adopts is (its footnote 4 discusses exactly this
// tradeoff: Elmore's additivity is what makes the DP provably optimal).
//
// Each stage's driving gate is modeled as its intrinsic delay plus a
// saturated-ramp source behind the gate's output resistance; the stage's
// 50%-crossing times at its leaves are measured by backward-Euler transient
// and stage delays compose through buffer input arrival times, mirroring
// elmore::analyze.
#pragma once

#include <vector>

#include "rct/stage.hpp"

namespace nbuf::sim {

// The swing, the pi-section length (100 µm) and the coupled fraction of
// wire cap (none: neighbours are quiet during a timing event) are fixed in
// delay.cpp; a 50% crossing of a linear stage does not depend on the swing.
struct StepDelayOptions {
  double driver_rise = 20e-12;  // second — ramp at every driving gate
  double steps_per_rise = 50.0;
};

struct SinkStepDelay {
  rct::SinkId sink;
  double delay = 0.0;  // second — source input to 50% crossing at the sink
};

struct StepDelayReport {
  std::vector<SinkStepDelay> sinks;  // indexed by SinkId
  double max_delay = 0.0;
};

// Simulated 50% delays through every stage of tree+buffers.
[[nodiscard]] StepDelayReport step_delays(const rct::RoutingTree& tree,
                                          const rct::BufferAssignment& buffers,
                                          const lib::BufferLibrary& lib,
                                          const StepDelayOptions& options = {});

}  // namespace nbuf::sim
