// Internal pieces shared by the two Van Ginneken DP kernels
// (core/vanginneken.cpp holds the one-shot reference oracle and the common
// driver fold; core/vanginneken_fast.cpp holds the fast kernel, the one
// engine of both cold core::optimize and memoized
// core::IncrementalContext runs). Both kernels, the driver fold and the
// subtree memo hold candidates in one form: VgCand lists, one per (phase,
// buffer count) bucket. Not part of the public API — include
// core/vanginneken.hpp instead.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/plan.hpp"
#include "core/vanginneken.hpp"
#include "lib/buffer.hpp"
#include "rct/tree.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace nbuf::core::detail {

struct VgCand {
  double load = 0.0;         // C — downstream capacitance
  double slack = 0.0;        // q — timing slack
  double current = 0.0;      // I — downstream coupling current
  double noise_slack = 0.0;  // NS
  double dhat = 0.0;         // max wire Elmore delay from here to any leaf
                             // of the current stage (for slew checks)
  PlanRef plan = kNullPlan;
};

using CandList = std::vector<VgCand>;

// Candidate lists of one node: [phase][buffer count]. phase 0 = signal at
// this node must be in the source's polarity, phase 1 = inverted.
struct NodeLists {
  std::array<std::vector<CandList>, 2> by_phase;

  // Candidate count across all buckets (trace-span tags).
  [[nodiscard]] std::size_t total_size() const noexcept {
    std::size_t n = 0;
    for (const auto& phase_lists : by_phase)
      for (const CandList& list : phase_lists) n += list.size();
    return n;
  }
};

// Content comparison of two solution DAGs of `arena`, three-way
// (-1/0/+1). Ref equality short-circuits shared structure (candidates in
// one list mostly share deep prefixes); otherwise cells compare by kind
// (Buffer < Wire < Merge), payload, then predecessors — a Merge cell's
// right branch before its left. Used only to break exact (load, slack)
// ties in cand_less, so the traversal almost never runs and never runs
// deep.
inline int plan_compare(const PlanArena& arena, PlanRef a, PlanRef b) {
  if (a == b) return 0;  // same arena cell: identical content
  if (a == kNullPlan) return -1;
  if (b == kNullPlan) return 1;
  const PlanCell& ca = arena.at(a);
  const PlanCell& cb = arena.at(b);
  if (ca.kind != cb.kind) return ca.kind < cb.kind ? -1 : 1;
  switch (ca.kind) {
    case PlanCell::Kind::Buffer:  // node, dist_above, type
      if (ca.x != cb.x) return ca.x < cb.x ? -1 : 1;
      if (ca.dist != cb.dist) return ca.dist < cb.dist ? -1 : 1;
      if (ca.y != cb.y) return ca.y < cb.y ? -1 : 1;
      break;
    case PlanCell::Kind::Wire:  // node, width
      if (ca.x != cb.x) return ca.x < cb.x ? -1 : 1;
      if (ca.y != cb.y) return ca.y < cb.y ? -1 : 1;
      break;
    case PlanCell::Kind::Merge: {  // right branch
      const int right = plan_compare(arena, ca.x, cb.x);
      if (right != 0) return right;
      break;
    }
  }
  return plan_compare(arena, ca.a, cb.a);
}

// The prune order of both kernels: load ascending, slack descending on
// ties. The remaining fields make the order TOTAL: exact (load, slack)
// ties genuinely occur (uniform 500 µm segmentation gives symmetric
// placements bit-identical keys), and with only a partial order each
// kernel's unstable sort could keep a different survivor of the tied run —
// breaking Fast-vs-Reference bit-identity of the reported plans. Ties
// prefer the more robust candidate (higher noise slack, lower coupling
// current, lower stage delay) and fall back to plan content, which two
// distinct candidates cannot share, read through the candidates' `arena`.
inline bool cand_less(const VgCand& a, const VgCand& b,
                      const PlanArena& arena) {
  if (a.load != b.load) return a.load < b.load;
  if (a.slack != b.slack) return a.slack > b.slack;
  if (a.noise_slack != b.noise_slack) return a.noise_slack > b.noise_slack;
  if (a.current != b.current) return a.current < b.current;
  if (a.dhat != b.dhat) return a.dhat < b.dhat;
  return plan_compare(arena, a.plan, b.plan) < 0;
}

// True when a would-be candidate (load, slack) is dominated by a pruned
// staircase view: some view entry has load <= `load` and slack >= `slack`.
// Such a candidate is removed as inferior by the very next prune no matter
// what else reaches that bucket (its dominator — or whatever pruned the
// dominator — keeps the running best slack at or above `slack` when the
// scan arrives), so the reference kernel skips materializing it and books
// it as generated-then-pruned directly (the fast kernel applies the same
// rule inside fuse_buffer_tail's merge). A staircase has strictly increasing
// loads AND slacks, so the only possible dominator is the last entry with
// load <= `load`; one binary search decides. Only valid under
// VgOptions::prune_candidates — without dominance pruning nothing may be
// dropped.
[[nodiscard]] inline bool dominated_by_staircase(const VgCand* view,
                                                 std::size_t n, double load,
                                                 double slack) {
  std::size_t lo = 0, hi = n;  // lower_bound: first entry with load > `load`
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (view[mid].load <= load) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo > 0 && view[lo - 1].slack >= slack;
}

// Full structural verification of one post-prune candidate list — the
// checks that used to live only in tests/test_vg_kernel, promoted into the
// library so every build at contract level 2 (and every caller that sets
// VgOptions::check_invariants) re-proves them after each DP step:
//   * sorted by cand_less — (load asc, slack desc) — the invariant both
//     Algorithm 2's pruning and the fast kernel's sort-free scans rest on;
//   * a strict Pareto staircase (loads AND slacks strictly ascend) when
//     dominance pruning is on;
//   * no dead candidate (noise slack < 0) when noise constraints are on.
// O(n) per call; throws std::logic_error (NBUF_ASSERT) on violation. The
// arena resolves plan ties.
void verify_cand_list(const CandList& list, const VgOptions& opt,
                      const PlanArena& arena);

// True when the kernels should call verify_cand_list after each step:
// requested explicitly, or the build carries full structural checks
// (NBUF_CONTRACTS=2 — the default for Debug and sanitizer builds).
inline bool verify_lists_enabled(const VgOptions& opt) {
  return NBUF_STRUCTURAL_CHECKS != 0 || opt.check_invariants;
}

// The fast kernel's buffer insertion (Fig. 11 Step 5) in two steps, each
// bit-identical to the reference kernel's insert_buffers + prune:
//
//  * Select. For one (phase, count) bucket view, every buffer type's best
//    predecessor maximizes q = s - D - R*C over the view entries feasible
//    for that type. One call answers all types, each by the reference
//    loop verbatim (noise and slew predicates, the same q expression, a
//    strict `>`), so the first index wins exact ties. The view is scanned
//    once per type while it is hot: on the 4-vCPU AVX-512 host with GCC 12
//    and no -march flag, a single pass per view with a branch-free update
//    per (entry, type) measured ~7% slower DP time on the Section V
//    testbench, because the per-type branches predict well and the
//    per-type running bests stay in registers (EXPERIMENTS.md F-T).
//  * Fuse. Each chosen predecessor becomes a BufferRecord in the tail of
//    its target bucket. fuse_buffer_tail folds that tail into the target's
//    pre-insertion staircase and prunes the result in one forward pass.
//
// Select is an exact scan on purpose: an upper-convex-hull query over the
// (load, slack) points (the Li-Shi O(bn^2) idea, PAPERS.md) is not exact
// under IEEE rounding — two predecessors' q can round to the same bits
// while only one lies on the hull — and tests/test_fast_kernel.cpp's
// differential fuzz found a plan divergence of that shape
// (docs/library.md).
struct BestPredecessor {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t idx = kNone;     // index into the view; kNone if none feasible
  double q = 0.0;              // its resulting slack
  std::size_t infeasible = 0;  // view entries failing a predicate
};

// Selects the best predecessor in `view` for every buffer type: the answer
// for types[t] goes to best[t] (the two spans have the same length).
void select_best_predecessors(const CandList& view,
                              std::span<const lib::BufferType> types,
                              bool noise_constraints, double max_slew,
                              std::span<BestPredecessor> best);

// A fresh buffer candidate before it enters its target list: load
// input_cap, slack q, noise slack noise_margin, current and dhat 0, plan
// Buffer{node, 0, type} over `pred`. No plan cell exists yet.
struct BufferRecord {
  double input_cap = 0.0;
  double q = 0.0;
  double noise_margin = 0.0;
  PlanRef pred = kNullPlan;
  lib::BufferId type;
};

struct FuseCounts {
  std::size_t born_dominated = 0;  // records a view entry dominates
  std::size_t passed = 0;          // records that entered the merge
  std::size_t dead = 0;            // the prune's noise-dead removals
  std::size_t inferior = 0;        // the prune's dominance removals
};

// Folds the records [recs, recs + t) — at most one per type, all inserted
// at node v — into `list`, a pruned staircase, exactly as the reference
// kernel does: drop records dominated at birth by a list entry (load <=
// input_cap and slack >= q, ties included), append the rest, sort by
// cand_less, prune. Among fresh buffers at one node cand_less is (load
// asc, q desc, noise_margin desc, type asc), because current and dhat are
// 0 and plan_compare differs first in the type; so the records sort alone,
// and one forward merge with the dead and running-best tests inline
// replaces append, sort and prune. Only surviving records get a plan cell
// in `arena`. When no record passes, `list` is left untouched; otherwise
// the result is built in `scratch` and swapped in. `recs` is reordered.
FuseCounts fuse_buffer_tail(CandList& list, BufferRecord* recs, std::size_t t,
                            rct::NodeId v, bool noise_constraints,
                            PlanArena& arena, CandList& scratch);

// Per-node memo of the fast kernel, the engine of core::IncrementalContext:
// nodes[v] holds the lists process(v) returned — the exact values a cold
// run computes, and a pure function of subtree(v).
// Each node is one packed list: bucket b (phase-major, then count) holds
// the n = offsets[b+1] - offsets[b] candidates from cands[offsets[b]] —
// one VgCand, 48 bytes, per candidate. Plan refs index the caching run's
// arena, which must outlive the memo.
struct SubtreeMemo {
  struct Node {
    std::vector<std::uint32_t> offsets;  // 2 * (buckets per phase) + 1
    CandList cands;
    bool valid = false;
  };
  std::vector<Node> nodes;  // by node id
  // Per-run tallies (reset by run_fast_kernel): subtrees served from the
  // memo vs recomputed. Deterministic — a pure function of the dirty set.
  std::size_t reused = 0;
  std::size_t recomputed = 0;

  void invalidate(rct::NodeId v) {  // nodes not yet sized are invalid
    if (v.value() < nodes.size()) nodes[v.value()].valid = false;
  }
  void invalidate_all() {
    for (Node& n : nodes) n.valid = false;
  }
};

// The input contract of both DP entry points (core::optimize and
// core::IncrementalContext): binary tree, non-empty library and a bucket
// count that fits.
void expect_valid_inputs(const rct::RoutingTree& tree,
                         const lib::BufferLibrary& lib,
                         const VgOptions& options);

// `options` with max_buffers clamped to the tree's buffer sites (at least
// one). A candidate's buffer count never exceeds the sites below it, so no
// bucket above the clamp can fill: the answer, per_count and every fast-
// kernel counter are unchanged, and a huge max_buffers sizes no buckets
// that stay empty.
[[nodiscard]] VgOptions clamped_to_sites(const rct::RoutingTree& tree,
                                         VgOptions options);

// Driver fold (Fig. 10 Steps 2-4) and objective selection, shared verbatim
// by both kernels so a kernel difference can only come from the DP itself.
// The chosen plans are collected from `arena`.
VgResult finalize(const NodeLists& at_source, const rct::RoutingTree& tree,
                  const VgOptions& opt, const util::VgStats& stats,
                  const PlanArena& arena);

// Entry point of the fast kernel (vanginneken_fast.cpp); the caller has
// checked expect_valid_inputs. Plans are built in `arena`. With a memo,
// valid nodes are served from it and every recomputed node is stored back
// (the memo is sized to the tree here); a cold core::optimize passes none.
VgResult run_fast_kernel(const rct::RoutingTree& tree,
                         const lib::BufferLibrary& lib, const VgOptions& opt,
                         PlanArena& arena, SubtreeMemo* memo = nullptr);

}  // namespace nbuf::core::detail
