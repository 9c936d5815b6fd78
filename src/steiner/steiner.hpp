// Rectilinear Steiner topology generation.
//
// The paper assumes "the input routing tree topology is fixed or that a
// Steiner estimation has been computed for the given net" (Section II).
// This module supplies that estimation: a greedy closest-attachment
// rectilinear Steiner heuristic. Pins join the growing tree at their nearest
// point on any already-routed edge (each edge is embedded as an L-shape,
// horizontal first); interior attachments create Steiner points. The result
// is annotated with per-unit parasitics and estimation-mode coupling
// currents from lib::Technology to produce an rct::RoutingTree.
#pragma once

#include <vector>

#include "lib/technology.hpp"
#include "rct/tree.hpp"

namespace nbuf::steiner {

struct Point {
  double x = 0.0;  // µm
  double y = 0.0;  // µm
};

[[nodiscard]] double manhattan(Point a, Point b);

// A sink pin to route to.
struct PinSpec {
  Point at;
  rct::SinkInfo info;
};

// Routes `pins` from the source, returning an electrically annotated
// routing tree (already binarized). Steiner points and L-bends become
// buffer-allowed internal nodes. Wires carry estimation-mode coupling:
// coupling_current = tech.wire_coupling_current(length).
[[nodiscard]] rct::RoutingTree build_tree(Point source_at, rct::Driver driver,
                                          const std::vector<PinSpec>& pins,
                                          const lib::Technology& tech);

}  // namespace nbuf::steiner
