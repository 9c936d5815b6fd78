#include "sim/tree_solver.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace nbuf::sim {

TreeSolver::TreeSolver(std::vector<std::size_t> parent,
                       std::vector<double> branch_g,
                       std::vector<double> extra)
    : parent_(std::move(parent)), branch_g_(std::move(branch_g)) {
  const std::size_t n = parent_.size();
  NBUF_EXPECTS(n >= 1);
  NBUF_EXPECTS(branch_g_.size() == n && extra.size() == n);
  for (std::size_t i = 1; i < n; ++i) {
    NBUF_EXPECTS_MSG(parent_[i] < n && parent_[i] != i, "bad parent link");
    NBUF_EXPECTS(branch_g_[i] > 0.0);
    NBUF_EXPECTS(extra[i] >= 0.0);
  }

  // Children-before-parents order via reversed preorder from the root.
  std::vector<std::vector<std::size_t>> kids(n);
  for (std::size_t i = 1; i < n; ++i) kids[parent_[i]].push_back(i);
  order_.reserve(n);
  std::vector<std::size_t> stack{0};
  while (!stack.empty()) {
    const std::size_t v = stack.back();
    stack.pop_back();
    order_.push_back(v);
    for (std::size_t k : kids[v]) stack.push_back(k);
  }
  NBUF_EXPECTS_MSG(order_.size() == n, "parent links form a cycle");
  std::reverse(order_.begin(), order_.end());

  // Symbolic+numeric factorization: D_i = extra_i + g_i + sum over children
  // g_c (1 - g_c / D_c); root has no g term.
  diag_ = std::move(extra);
  for (std::size_t i = 1; i < n; ++i) diag_[i] += branch_g_[i];
  ratio_.assign(n, 0.0);
  for (std::size_t v : order_) {
    if (v == 0) break;  // root is last
    NBUF_EXPECTS_MSG(diag_[v] > 0.0, "singular tree system");
    ratio_[v] = branch_g_[v] / diag_[v];
    diag_[parent_[v]] += branch_g_[v] * (1.0 - ratio_[v]);
  }
  NBUF_EXPECTS_MSG(diag_[0] > 0.0, "singular tree system (floating root)");
}

void TreeSolver::solve(std::vector<double>& rhs) const {
  const std::size_t n = parent_.size();
  NBUF_EXPECTS(rhs.size() == n);
  // Forward (leaves to root): fold each child's contribution into parent.
  for (std::size_t v : order_) {
    if (v == 0) break;
    rhs[parent_[v]] += ratio_[v] * rhs[v];
  }
  // Root solve, then push solutions downward (root to leaves).
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const std::size_t v = *it;
    if (v == 0) {
      rhs[0] /= diag_[0];
    } else {
      rhs[v] = (rhs[v] + branch_g_[v] * rhs[parent_[v]]) / diag_[v];
    }
  }
}

}  // namespace nbuf::sim
