// O(n) direct solver for tree-structured conductance systems.
//
// The backward-Euler system matrix of a buffered-net stage is
//   A = L(g) + diag(extra)
// where L(g) is the Laplacian of the stage's resistor tree and `extra`
// collects grounded conductances (the driver) and C/h terms. Eliminating
// leaves toward the root produces no fill-in, so A factors once in O(n) and
// every timestep solves in O(n) — the property that makes the golden
// transient analysis linear-time per stage, mirroring how RICE/AWE-class
// tools exploit RC-tree structure.
#pragma once

#include <cstddef>
#include <vector>

namespace nbuf::sim {

class TreeSolver {
 public:
  // Nodes are 0..n-1 with node 0 the root. parent[i] is i's parent
  // (parent[0] ignored); branch_g[i] > 0 is the conductance from i to its
  // parent (branch_g[0] ignored); extra[i] >= 0 is the grounded diagonal
  // addition. The assembled matrix must be nonsingular (some extra > 0).
  TreeSolver(std::vector<std::size_t> parent, std::vector<double> branch_g,
             std::vector<double> extra);

  // Solves A v = rhs in place. rhs.size() == node count.
  void solve(std::vector<double>& rhs) const;

  [[nodiscard]] std::size_t size() const noexcept { return parent_.size(); }

 private:
  std::vector<std::size_t> parent_;
  std::vector<double> branch_g_;
  std::vector<double> diag_;   // eliminated diagonal D_i
  std::vector<double> ratio_;  // g_i / D_i, the forward-sweep multiplier
  std::vector<std::size_t> order_;  // children-before-parents
};

}  // namespace nbuf::sim
