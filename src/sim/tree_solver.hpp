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
//
// The factor is stored in elimination order: position k holds the k-th
// node eliminated (children before parents, the root last), so both sweeps
// walk the arrays contiguously. The order is the reversed preorder from the
// root, so each parent folds its children in ascending node index; every
// number a solve produces depends on that order, and it is fixed here only.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace nbuf::sim {

class TreeSolver {
 public:
  // Nodes are 0..n-1 with node 0 the root. parent[i] is i's parent
  // (parent[0] ignored); branch_g[i] > 0 is the conductance from i to its
  // parent (branch_g[0] ignored); extra[i] >= 0 is the grounded diagonal
  // addition. The assembled matrix must be nonsingular (some extra > 0).
  TreeSolver(const std::vector<std::size_t>& parent,
             const std::vector<double>& branch_g,
             const std::vector<double>& extra);

  // Solves A v = rhs in place; rhs is indexed by node, rhs.size() == n.
  void solve(std::vector<double>& rhs) const;
  // The same solve on a vector in elimination order (x[k] belongs to
  // node_at(k)), without the permutation.
  void solve_in_order(std::span<double> x) const;

  [[nodiscard]] std::size_t size() const noexcept { return node_.size(); }

  // The factor, position k in elimination order (k = size()-1 is the root).
  // For k < size()-1: the forward sweep does x[up(k)] += ratio(k)·x[k], the
  // backward sweep x[k] = (x[k] + g(k)·x[up(k)]) / diag(k); the root
  // divides by its diag alone, between the two.
  [[nodiscard]] std::span<const std::size_t> node_at() const { return node_; }
  [[nodiscard]] std::span<const std::size_t> up() const { return up_; }
  [[nodiscard]] std::span<const double> g() const { return g_; }
  [[nodiscard]] std::span<const double> diag() const { return diag_; }
  [[nodiscard]] std::span<const double> ratio() const { return ratio_; }

 private:
  std::vector<std::size_t> node_;  // node eliminated at position k
  std::vector<std::size_t> up_;    // position of its parent
  std::vector<double> g_;          // branch conductance to the parent
  std::vector<double> diag_;       // eliminated diagonal D
  std::vector<double> ratio_;      // g / D, the forward-sweep multiplier
};

}  // namespace nbuf::sim
