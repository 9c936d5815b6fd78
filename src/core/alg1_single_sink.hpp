// Algorithm 1: optimal noise avoidance for single-sink trees
// (Section III-B, Fig. 8).
//
// Climbs from the sink to the source, maintaining the downstream current and
// noise slack. Whenever deferring a buffer past the current wire would
// violate noise, a buffer is inserted at its maximal distance up the wire
// (Theorem 1); at the source, a guard buffer is inserted just below the
// driver if the driver's own resistance would break the constraint (only
// possible when R_source > R_buffer). Linear time, and optimal in the
// number of inserted buffers (Theorem 3).
//
// With a multi-buffer library the smallest-resistance type alone achieves
// optimality (remark after Theorem 3), so that is the type inserted;
// inverting types are excluded because the algorithm does not track signal
// polarity.
#pragma once

#include "core/plan.hpp"
#include "lib/buffer.hpp"
#include "rct/assignment.hpp"
#include "rct/tree.hpp"

namespace nbuf::core {

struct NoiseAvoidanceResult {
  rct::RoutingTree tree;  // input copy, possibly with added buffer sites
  rct::BufferAssignment buffers;
  std::size_t buffer_count = 0;
};

// The buffer type Algorithms 1 and 2 insert: the smallest-resistance
// non-inverting type (or smallest-resistance overall if the library has no
// non-inverting member). Exact resistance ties break on the type name, so
// the choice is the same for any permutation of the same library.
[[nodiscard]] lib::BufferId noise_buffer_choice(const lib::BufferLibrary& lib);

// Solves Problem 1 on a single-sink (path) tree: the minimum number of
// buffers such that no noise constraint is violated. Requires every node of
// `input` to have at most one child.
[[nodiscard]] NoiseAvoidanceResult avoid_noise_single_sink(
    const rct::RoutingTree& input, const lib::BufferLibrary& lib);

}  // namespace nbuf::core
