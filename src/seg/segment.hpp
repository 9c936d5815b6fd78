// Wire segmenting preprocessing (Alpert & Devgan, DAC 1997).
//
// Van Ginneken-style algorithms insert at most one buffer per wire, so long
// wires must first be divided into shorter segments whose endpoints become
// candidate buffer sites. Granularity trades solution quality for runtime
// (the paper's footnote 3); ablation bench ablB_segmenting measures the
// tradeoff.
#pragma once

#include <cstddef>

#include "rct/tree.hpp"

namespace nbuf::seg {

struct Options {
  // Wires longer than this are split into equal pieces no longer than it.
  double max_segment_length = 500.0;  // µm
};

// The most nodes segment() grows a tree to. Far above every in-repo
// workload (chain512's 512-site chains are the largest); it stops outside
// input — a 1e12 µm wire, or a 1e-9 µm granularity — from allocating
// without a bound.
inline constexpr std::size_t kMaxSegmentedNodes = std::size_t{1} << 20;

// Splits every over-long wire of `tree` into equal segments, creating
// buffer-allowed internal nodes. Preserves total R, C, coupling current and
// length exactly. Returns the number of nodes added. Throws
// std::invalid_argument, leaving `tree` unchanged, when the result would
// exceed kMaxSegmentedNodes.
std::size_t segment(rct::RoutingTree& tree, const Options& options);

}  // namespace nbuf::seg
