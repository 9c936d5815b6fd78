// Algorithm 2: optimal noise avoidance for multi-sink trees
// (Section III-C, Fig. 9).
//
// Bottom-up candidate propagation in the spirit of Van Ginneken: a candidate
// at node v is (I, NS, M) — downstream current, noise slack, and the buffer
// placements chosen so far. Wires are climbed exactly as in Algorithm 1
// (forced buffers at Theorem-1 maximal distance). At a two-child merge the
// combined candidate is (I_l + I_r, min(NS_l, NS_r)); when even a buffer
// placed right above the merge could not satisfy that combination
// (R_b (I_l + I_r) > min(NS_l, NS_r), Step 5), the merge forks into two
// candidates — buffer at the top of the left branch, or of the right branch
// — both of which the climb invariant guarantees are feasible. Inferior
// candidates (I no better, NS no better, and — a strengthening over the
// paper that is never less optimal — buffer count no better) are pruned.
//
// Solves Problem 1: minimum buffers such that no noise violation remains.
#pragma once

#include "core/alg1_single_sink.hpp"

namespace nbuf::core {

struct Alg2Stats {
  std::size_t max_list_size = 0;   // largest candidate list at any node
  std::size_t forks = 0;           // merges that required a branch buffer
  std::size_t candidates_created = 0;
};

struct MultiSinkResult {
  rct::RoutingTree tree;
  rct::BufferAssignment buffers;
  std::size_t buffer_count = 0;
  Alg2Stats stats;
};

// Requires a binary tree (call tree.binarize() first if needed).
[[nodiscard]] MultiSinkResult avoid_noise_multi_sink(
    const rct::RoutingTree& input, const lib::BufferLibrary& lib);

}  // namespace nbuf::core
