// Incremental re-optimization: the state a long-lived optimization service
// keeps per net so a perturbed tree re-answers in far less than a cold run.
//
// The Van Ginneken DP is bottom-up: the candidate lists of a node are a
// pure function of its subtree. So after one full run we can memoize every
// node's post-insertion candidate lists and, when a perturbation touches
// node v, invalidate only v's root spine: the next run recomputes the dirty
// spine and serves every clean sibling subtree from the memo. The answer is
// bit-identical to a cold run on the perturbed tree by construction —
// cached lists hold exactly the values a cold run would rebuild, and
// candidate-order ties resolve by plan CONTENT (detail::cand_less), never
// by ref value. Every run is the fast kernel, the default engine of a
// cold core::optimize; its memo is detail::SubtreeMemo (core/vg_kernel.hpp),
// one packed block of candidate lanes plus bucket offsets per node.
//
// Perturbation is the shared edit vocabulary: src/serve's PERTURB opcode
// wraps this API, and tests/test_incremental's differential harness draws
// edits with random_perturbation(), applies them through
// IncrementalContext::apply() and cross-checks a cold core::optimize.
//
// Memory: the context owns one PlanArena for its whole lifetime (cached
// candidates hold refs into it) and never frees a cell, so the arena grows
// without a bound across re-optimizations, 24 bytes per cell;
// Stats::plan_cells tracks the growth. Buffer insertion allocates a cell
// only for a fresh candidate that survives its bucket's prune, which slows
// the growth but does not bound it: 20,000 random PERTURBs of a 20-sink
// netgen net at max_buffers 8 still leave 63.7M cells, 1,780x a cold run
// on the final tree (EXPERIMENTS.md F-P, F-Q).
#pragma once

#include <cstddef>

#include "core/vanginneken.hpp"
#include "core/vg_kernel.hpp"
#include "lib/buffer.hpp"
#include "rct/tree.hpp"
#include "util/rng.hpp"

namespace nbuf::core {

// One tree edit, the vocabulary of iterative physical design this library
// serves: a router rescales a wire (detour / sink move), retunes a sink
// (cell swap), splits a wire (new buffer site), tightens every noise
// margin (spec change), or rescales all coupling currents (aggressor-slope
// change). The first three are local — their DP impact is one root spine;
// the last two are global and legitimately invalidate everything.
struct Perturbation {
  enum class Kind {
    WireScale,       // parent wire of `node`: R/C/I scaled by the factors
    SinkSet,         // sink `sink` replaced by `sink_info`
    WireSplit,       // parent wire of `node` split `dist_above` up it
    TightenMargins,  // every sink: noise_margin -= delta
    ScaleCoupling,   // every wire: coupling_current *= factor
  };
  Kind kind = Kind::WireScale;
  rct::NodeId node;          // WireScale / WireSplit target (non-source)
  rct::SinkId sink;          // SinkSet target
  double res_factor = 1.0;   // WireScale
  double cap_factor = 1.0;   // WireScale
  double cur_factor = 1.0;   // WireScale
  double dist_above = 0.0;   // WireSplit: µm above `node`, in (0, length)
  rct::SinkInfo sink_info;   // SinkSet replacement (node field ignored)
  double delta = 0.0;        // TightenMargins (volt)
  double factor = 1.0;       // ScaleCoupling
};

// Applies `p` to `tree` directly (no dirty tracking — for harnesses that
// re-analyze from scratch). Returns the new node for WireSplit, an invalid
// id otherwise.
rct::NodeId apply_perturbation(rct::RoutingTree& tree, const Perturbation& p);

// A random local edit (WireScale / SinkSet / WireSplit with the 120-case
// harness's historic distributions): rescale factors in [0.4, 2.5], sink
// cap x[0.5, 2.0] with a fresh margin in [0.3, 1.2] V, splits at
// [0.25, 0.75] of wires longer than 1 µm (shorter wires degrade to a
// WireScale so every draw yields a usable edit).
[[nodiscard]] Perturbation random_perturbation(util::Rng& rng,
                                               const rct::RoutingTree& tree);

class IncrementalContext {
 public:
  // `tree` must be binary with buffer sites already created (callers run
  // tree.binarize() + seg::segment first — the service does this once per
  // LOAD, which is the point). The DP always runs the fast kernel, so
  // `opt.kernel` is ignored and `opt.prune_candidates` must be true.
  IncrementalContext(rct::RoutingTree tree, const lib::BufferLibrary& lib,
                     VgOptions opt);

  [[nodiscard]] const rct::RoutingTree& tree() const noexcept {
    return tree_;
  }
  [[nodiscard]] const lib::BufferLibrary& library() const noexcept {
    return lib_;
  }
  [[nodiscard]] const VgOptions& options() const noexcept { return opt_; }

  // --- perturbations: mutate the held tree and mark the dirty spine ------
  void scale_wire(rct::NodeId v, double res_factor, double cap_factor,
                  double cur_factor);
  void set_sink(rct::SinkId s, rct::SinkInfo info);
  rct::NodeId split_wire(rct::NodeId v, double dist_above);
  void tighten_margins(double delta);
  void scale_coupling(double factor);
  // Dispatch on p.kind; returns the new node for WireSplit.
  rct::NodeId apply(const Perturbation& p);

  // Drops every cached subtree, so the next optimize() is a full cold run
  // on the current tree (the service's cold-vs-incremental A/B lever).
  void invalidate_all();

  // Runs the DP, recomputing only invalidated subtrees (the first call is
  // always a full run). The returned reference stays valid until the next
  // optimize() call.
  const VgResult& optimize();

  // Last optimize() result; null before the first run.
  [[nodiscard]] const VgResult* result() const noexcept {
    return have_result_ ? &result_ : nullptr;
  }

  struct Stats {
    std::size_t runs = 0;             // optimize() calls
    std::size_t last_reused = 0;      // subtrees served from cache last run
    std::size_t last_recomputed = 0;  // subtrees recomputed last run
    std::size_t plan_cells = 0;       // arena size (monotone growth)
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  void dirty_up(rct::NodeId v);

  rct::RoutingTree tree_;
  lib::BufferLibrary lib_;  // copy: the context outlives caller reloads
  VgOptions opt_;
  PlanArena arena_;
  detail::SubtreeMemo memo_;
  VgResult result_;
  bool have_result_ = false;
  Stats stats_;
};

// Solution-content equality of two VgResults: chosen plan, slacks, and the
// full per-count table. DP-effort statistics are deliberately excluded —
// an incremental run legitimately generates/prunes fewer candidates than
// the cold run it must otherwise match bit-for-bit.
[[nodiscard]] bool same_solution(const VgResult& a, const VgResult& b);

}  // namespace nbuf::core
