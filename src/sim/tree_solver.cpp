#include "sim/tree_solver.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace nbuf::sim {

TreeSolver::TreeSolver(const std::vector<std::size_t>& parent,
                       const std::vector<double>& branch_g,
                       const std::vector<double>& extra) {
  const std::size_t n = parent.size();
  NBUF_EXPECTS(n >= 1);
  NBUF_EXPECTS(branch_g.size() == n && extra.size() == n);
  for (std::size_t i = 1; i < n; ++i) {
    NBUF_EXPECTS_MSG(parent[i] < n && parent[i] != i, "bad parent link");
    NBUF_EXPECTS(branch_g[i] > 0.0);
    NBUF_EXPECTS(extra[i] >= 0.0);
  }

  // Children-before-parents order via reversed preorder from the root.
  std::vector<std::vector<std::size_t>> kids(n);
  for (std::size_t i = 1; i < n; ++i) kids[parent[i]].push_back(i);
  node_.reserve(n);
  std::vector<std::size_t> stack{0};
  while (!stack.empty()) {
    const std::size_t v = stack.back();
    stack.pop_back();
    node_.push_back(v);
    for (std::size_t k : kids[v]) stack.push_back(k);
  }
  NBUF_EXPECTS_MSG(node_.size() == n, "parent links form a cycle");
  std::reverse(node_.begin(), node_.end());

  std::vector<std::size_t> pos(n);
  for (std::size_t k = 0; k < n; ++k) pos[node_[k]] = k;
  up_.assign(n, n - 1);
  g_.assign(n, 0.0);
  diag_.resize(n);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    up_[k] = pos[parent[node_[k]]];
    g_[k] = branch_g[node_[k]];
  }

  // Numeric factorization: D_i = extra_i + g_i + sum over children
  // g_c (1 - g_c / D_c); root has no g term.
  for (std::size_t k = 0; k < n; ++k) diag_[k] = extra[node_[k]];
  for (std::size_t k = 0; k + 1 < n; ++k) diag_[k] += g_[k];
  ratio_.assign(n, 0.0);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    NBUF_EXPECTS_MSG(diag_[k] > 0.0, "singular tree system");
    ratio_[k] = g_[k] / diag_[k];
    diag_[up_[k]] += g_[k] * (1.0 - ratio_[k]);
  }
  NBUF_EXPECTS_MSG(diag_[n - 1] > 0.0,
                   "singular tree system (floating root)");
}

void TreeSolver::solve_in_order(std::span<double> x) const {
  const std::size_t n = node_.size();
  NBUF_EXPECTS(x.size() == n);
  // Forward (leaves to root): fold each child's contribution into parent.
  // Position k+1 is final once reached (its children sit below it), and
  // when it is k's parent, k is its last child; the value then stays in a
  // register instead of going through memory.
  double cur = x[0];
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double folded = x[up_[k]] + ratio_[k] * cur;
    x[up_[k]] = folded;
    cur = up_[k] == k + 1 ? folded : x[k + 1];
  }
  // Root solve, then push solutions downward (root to leaves).
  double above = x[n - 1] / diag_[n - 1];
  x[n - 1] = above;
  for (std::size_t k = n - 1; k-- > 0;) {
    const double p = up_[k] == k + 1 ? above : x[up_[k]];
    above = (x[k] + g_[k] * p) / diag_[k];
    x[k] = above;
  }
}

void TreeSolver::solve(std::vector<double>& rhs) const {
  const std::size_t n = node_.size();
  NBUF_EXPECTS(rhs.size() == n);
  std::vector<double> x(n);
  for (std::size_t k = 0; k < n; ++k) x[k] = rhs[node_[k]];
  solve_in_order(x);
  for (std::size_t k = 0; k < n; ++k) rhs[node_[k]] = x[k];
}

}  // namespace nbuf::sim
