// Repeater insertion for multi-source nets (the Lillis, DAC 1997 extension
// the paper cites).
//
// A multi-source net (bidirectional bus, multi-driver control line)
// operates in modes: in each mode one terminal drives and all others
// receive. Repeaters are modeled as bidirectional (orientation-free): a
// placed repeater restores the signal travelling in whichever direction the
// active mode sends it, which is how such nets are buffered in practice
// (back-to-back tristate pairs).
//
// The optimizer guarantees noise correctness in EVERY mode by iterative
// per-mode repair on a segmented tree:
//   repeat until clean or round limit:
//     for each mode: re-root the tree at the mode's driver (rct::reroot),
//     decompose into stages under the current repeater set, and for each
//     stage with a noise violation run the noise-constrained Van Ginneken
//     DP on the extracted stage, merging the new repeaters back.
// Adding a restoring repeater only ever shortens stages in every
// orientation, so (with the strongest library type, as in Algorithms 1-2)
// progress is monotone and the loop terminates.
//
// The repeater type is noise_buffer_choice(lib), the tree is segmented at
// 500 µm, and the loop runs at most 8 rounds.
#pragma once

#include <vector>

#include "core/vanginneken.hpp"
#include "noise/devgan.hpp"
#include "seg/segment.hpp"

namespace nbuf::core {

// One operating mode: `terminal` drives through `driver`. An invalid
// terminal id denotes the base mode (the tree's own source drives).
struct NetMode {
  rct::NodeId terminal;
  rct::Driver driver;
};

struct MultiSourceOptions {
  // Pin seen at the original source terminal when some other mode drives.
  rct::SinkInfo source_as_sink;
};

struct MultiSourceResult {
  rct::RoutingTree tree;  // segmented base-orientation tree
  rct::BufferAssignment repeaters;  // on `tree`
  bool feasible = false;            // all modes noise-clean
  std::size_t rounds = 0;
  std::vector<double> mode_worst_slack;  // final, per mode (volt)
};

// Per-mode noise analysis of a given repeater set (exposed for tests and
// reporting). Mode order matches `modes`.
[[nodiscard]] std::vector<noise::NoiseReport> analyze_modes(
    const rct::RoutingTree& tree, const rct::BufferAssignment& repeaters,
    const lib::BufferLibrary& lib, const std::vector<NetMode>& modes,
    const rct::SinkInfo& source_as_sink);

// Finds a repeater set that is noise-clean in every mode. `modes` must
// include the base mode (invalid terminal) if the original source can
// drive.
[[nodiscard]] MultiSourceResult optimize_multisource(
    const rct::RoutingTree& input, const lib::BufferLibrary& lib,
    const std::vector<NetMode>& modes, const MultiSourceOptions& options);

}  // namespace nbuf::core
