// Internal pieces shared by the two Van Ginneken DP kernels
// (core/vanginneken.cpp holds the one-shot reference oracle and the common
// driver fold; core/vanginneken_fast.cpp holds the fast kernel, the one
// engine of both cold core::optimize and memoized
// core::IncrementalContext runs). Not part of the public API — include
// core/vanginneken.hpp instead.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/plan.hpp"
#include "core/soa.hpp"
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
  const PlanCell* plan = nullptr;
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

// Content comparison of two solution DAGs, three-way (-1/0/+1). Pointer
// equality short-circuits shared structure (candidates in one list mostly
// share deep prefixes); otherwise cells compare by kind, payload, then
// predecessors. Used only to break exact (load, slack) ties in cand_less,
// so the traversal almost never runs and never runs deep.
inline int plan_compare(const PlanCell* a, const PlanCell* b) {
  if (a == b) return 0;  // same arena cell: identical content
  if (a == nullptr) return -1;
  if (b == nullptr) return 1;
  if (a->kind != b->kind) return a->kind < b->kind ? -1 : 1;
  switch (a->kind) {
    case PlanCell::Kind::Buffer: {
      const PlannedBuffer& pa = a->placement;
      const PlannedBuffer& pb = b->placement;
      if (pa.node != pb.node) return pa.node < pb.node ? -1 : 1;
      if (pa.dist_above != pb.dist_above)
        return pa.dist_above < pb.dist_above ? -1 : 1;
      if (pa.type != pb.type) return pa.type < pb.type ? -1 : 1;
      break;
    }
    case PlanCell::Kind::Wire: {
      if (a->wire.node != b->wire.node)
        return a->wire.node < b->wire.node ? -1 : 1;
      if (a->wire.width != b->wire.width)
        return a->wire.width < b->wire.width ? -1 : 1;
      break;
    }
    case PlanCell::Kind::Merge: {
      const int right = plan_compare(a->b, b->b);
      if (right != 0) return right;
      break;
    }
  }
  return plan_compare(a->a, b->a);
}

// The prune order of both kernels: load ascending, slack descending on
// ties. The remaining fields make the order TOTAL: exact (load, slack)
// ties genuinely occur (uniform 500 µm segmentation gives symmetric
// placements bit-identical keys), and with only a partial order each
// kernel's unstable sort could keep a different survivor of the tied run —
// breaking Fast-vs-Reference bit-identity of the reported plans. Ties
// prefer the more robust candidate (higher noise slack, lower coupling
// current, lower stage delay) and fall back to plan content, which two
// distinct candidates cannot share.
inline bool cand_less(const VgCand& a, const VgCand& b) {
  if (a.load != b.load) return a.load < b.load;
  if (a.slack != b.slack) return a.slack > b.slack;
  if (a.noise_slack != b.noise_slack) return a.noise_slack > b.noise_slack;
  if (a.current != b.current) return a.current < b.current;
  if (a.dhat != b.dhat) return a.dhat < b.dhat;
  return plan_compare(a.plan, b.plan) < 0;
}

// cand_less over SoA lanes (fast kernel): the same total order, reading one
// field lane at a time; plan ties resolve by content through the arena's
// cells, exactly as the AoS form. The two-span form compares element i of
// span `a` with element j of span `b` (the in-place tail merge reads the
// buffered tail and the prefix from different storage).
inline bool soa_cand_less(const CandSpan& a, std::size_t i, const CandSpan& b,
                          std::size_t j, const PlanArena& arena) {
  if (a.load[i] != b.load[j]) return a.load[i] < b.load[j];
  if (a.slack[i] != b.slack[j]) return a.slack[i] > b.slack[j];
  if (a.noise_slack[i] != b.noise_slack[j])
    return a.noise_slack[i] > b.noise_slack[j];
  if (a.current[i] != b.current[j]) return a.current[i] < b.current[j];
  if (a.dhat[i] != b.dhat[j]) return a.dhat[i] < b.dhat[j];
  return plan_compare(arena.cell(a.plan[i]), arena.cell(b.plan[j])) < 0;
}

inline bool soa_cand_less(const CandSpan& s, std::size_t i, std::size_t j,
                          const PlanArena& arena) {
  return soa_cand_less(s, i, s, j, arena);
}

// True when a would-be candidate (load, slack) is dominated by a pruned
// staircase view: some view entry has load <= `load` and slack >= `slack`.
// Such a candidate is removed as inferior by the very next prune no matter
// what else reaches that bucket (its dominator — or whatever pruned the
// dominator — keeps the running best slack at or above `slack` when the
// scan arrives), so both kernels skip materializing it and book it as
// generated-then-pruned directly. A staircase has strictly increasing
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

// Lane form of the same dominance test, for the fast kernel's SoA lists:
// the staircase view is the first `n` entries of the load and slack lanes.
[[nodiscard]] inline bool dominated_by_staircase(const double* loads,
                                                 const double* slacks,
                                                 std::size_t n, double load,
                                                 double slack) {
  std::size_t lo = 0, hi = n;  // lower_bound: first entry with load > `load`
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (loads[mid] <= load) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo > 0 && slacks[lo - 1] >= slack;
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
// O(n) per call; throws std::logic_error (NBUF_ASSERT) on violation.
void verify_cand_list(const CandList& list, const VgOptions& opt);

// The same verification over an SoA view (fast kernel, which always prunes
// by dominance): sorted by soa_cand_less, strict Pareto staircase, no dead
// candidate under noise constraints. The arena resolves plan ties.
void verify_cand_list(const CandSpan& view, const VgOptions& opt,
                      const PlanArena& arena);

// True when the kernels should call verify_cand_list after each step:
// requested explicitly, or the build carries full structural checks
// (NBUF_CONTRACTS=2 — the default for Debug and sanitizer builds).
inline bool verify_lists_enabled(const VgOptions& opt) {
  return NBUF_STRUCTURAL_CHECKS != 0 || opt.check_invariants;
}

// Buffer-type walk order of the best-predecessor structure: type positions
// sorted by output resistance descending (ties keep id order). Built once
// per DP run; BestPredecessors::select must be queried in this order so
// each candidate's feasible types form a suffix of the walk and group
// activation only ever grows.
struct TypeOrder {
  std::vector<lib::BufferId> ids;  // position -> library id

  [[nodiscard]] static TypeOrder make(const lib::BufferLibrary& lib);
};

// Best-predecessor selection of the multi-type insertion step. For buffer
// type t with output resistance R the best predecessor in a bucket
// maximizes q = s − D_t − R·C over the bucket's candidates, first index
// wins exact ties — the reference kernel's naive scan. prepare() hoists
// everything about that scan that is bit-exactly precomputable: with
// noise/slew constraints on, each candidate's feasible types form a SUFFIX
// of the R-descending walk order (both thresholds are products monotone in
// R under IEEE rounding), so one binary search per candidate finds its
// first feasible position and a counting sort groups candidates by it.
// Candidates feasible for no type are dropped outright (killed()).
// select_all() then answers EVERY type's query in one candidate-major
// pass: each candidate's lanes are read once and update one accumulator
// per type in its feasible suffix — no per-candidate predicate ever runs
// again, no per-type re-walk of the staircase, and the accumulator update
// is branch-light (the running best changes only O(log m) times per type
// on typical staircases).
//
// An earlier version of this structure also kept, per group, the upper
// convex hull of the (load, slack) points and answered queries by a
// monotone pointer walk — O(m + b) per bucket instead of the scan's
// O(b·m). In exact arithmetic the argmax always lies on that hull and the
// walk's first-of-plateau stop reproduces the scan's first-wins tie-break.
// Under IEEE rounding it does not: two predecessors' q values can round to
// the SAME bits while only one of them sits on the hull (or while the
// pointer already passed the earlier one), and the scan then keeps a
// candidate the walk cannot see — a real plan divergence found by the
// tests/test_soa_kernel.cpp differential fuzz (DelayOpt, 64-type library:
// bit-equal q, different predecessor, different final plan). The walk was
// therefore retired: select_all() evaluates the reference's exact q
// expression for every feasible (candidate, type) pair and keeps, per
// type, the minimum index among bit-equal maxima. That is the reference's
// first-wins result restated order-independently — so the candidate-major
// visit order (groups back to back, indices interleaving across groups)
// cannot change any choice — and it costs the same O(b·m) element visits
// as the reference scan, just arranged so each candidate's lanes are
// loaded once instead of once per type.
class BestPredecessors {
 public:
  // Builds the structure over the candidates of `view` (an SoA lane view,
  // SoAList::span), which must form a pruned Pareto staircase in cand_less
  // order. The view's lanes must stay valid until the next prepare().
  void prepare(const CandSpan& view, const VgOptions& opt,
               const lib::BufferLibrary& lib, const TypeOrder& order);

  struct Choice {
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t idx = kNone;  // best predecessor's index into the prepared
                              // view; kNone if none is feasible
    double q = 0.0;           // its resulting slack for this type
  };
  // Fills `out[pos]` with the candidate the naive scan would pick for the
  // type at walk position `pos`, for every position at once (one
  // candidate-major pass; out is sized to the walk length).
  void select_all(const lib::BufferLibrary& lib, const TypeOrder& order,
                  std::vector<Choice>& out);

  // Candidates of the last prepare() that can never be any type's best
  // predecessor: infeasible (noise/slew) for every type in the library.
  [[nodiscard]] std::size_t killed() const noexcept { return killed_; }

 private:
  struct Group {
    std::size_t first_type = 0;  // t_min shared by the group's candidates
    std::size_t begin = 0;       // [begin, end) into sorted_
    std::size_t end = 0;
  };

  CandSpan view_;               // lanes of the last prepare()
  std::vector<Group> groups_;   // ascending first_type
  std::size_t killed_ = 0;
  std::vector<std::size_t> tmin_;    // scratch: per-candidate first type
  std::vector<std::size_t> counts_;  // scratch: counting-sort offsets
  std::vector<std::size_t> sorted_;  // candidates grouped by tmin, index
                                     // ascending within each group
  std::vector<double> res_;          // per-walk-pos output resistance
  std::vector<double> delay_;        // per-walk-pos intrinsic delay
  std::vector<double> best_q_;       // select_all accumulators
  std::vector<std::size_t> best_i_;  // (running q max / its min index)
};

// Per-node memo of the fast kernel, the engine of core::IncrementalContext:
// nodes[v] holds the lists process(v) returned, every lazy wire flushed —
// the exact values a cold run computes, and a pure function of subtree(v).
// Each node is one packed block: bucket b (phase-major, then count) holds
// its n = offsets[b+1] - offsets[b] candidates as five n-long value lanes
// (load, slack, current, noise_slack, dhat) from values[5 * offsets[b]],
// and plan refs from plans[offsets[b]] — 44 bytes per candidate, with
// none of an SoAList's 64-byte lane padding. Plan refs index the caching
// run's arena, which must outlive the memo; no rct::Wire pointer is kept,
// so a split_wire that reallocates tree storage cannot dangle one.
struct SubtreeMemo {
  struct Node {
    std::vector<std::uint32_t> offsets;  // 2 * (max_buffers + 1) + 1
    std::vector<double> values;
    std::vector<PlanRef> plans;
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
// core::IncrementalContext): binary tree, non-empty library, a bucket count
// that fits, and per-type costs matching the library.
void expect_valid_inputs(const rct::RoutingTree& tree,
                         const lib::BufferLibrary& lib,
                         const VgOptions& options);

// Driver fold (Fig. 10 Steps 2-4) and objective selection, shared verbatim
// by both kernels so a kernel difference can only come from the DP itself.
VgResult finalize(const NodeLists& at_source, const rct::RoutingTree& tree,
                  const VgOptions& opt, const util::VgStats& stats);

// Entry point of the fast kernel (vanginneken_fast.cpp); the caller has
// checked expect_valid_inputs. Plans are built in `arena`. With a memo,
// valid nodes are served from it and every recomputed node is stored back
// (the memo is sized to the tree here); a cold core::optimize passes none.
VgResult run_fast_kernel(const rct::RoutingTree& tree,
                         const lib::BufferLibrary& lib, const VgOptions& opt,
                         PlanArena& arena, SubtreeMemo* memo = nullptr);

}  // namespace nbuf::core::detail
