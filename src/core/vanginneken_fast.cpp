// The fast Van Ginneken kernel (default; see VgKernel::Fast).
//
// Four structural observations make the seed kernel's per-prune std::sort,
// per-candidate wire updates, per-node deep copies, and strided candidate
// traffic unnecessary:
//
//  1. Sort invariant. Every prune leaves its list sorted by (load asc,
//     slack desc) and — with dominance pruning on — strictly ascending in
//     both load and slack (a Pareto staircase). An unsized wire extension
//     maps every candidate with the same monotone affine update, so the
//     sorted order survives; the Van Ginneken two-list merge emits loads in
//     ascending order by construction; and buffer insertion appends a small
//     sorted tail that one stable merge pass folds back in. Pruning is
//     therefore a single linear scan (dead-candidate removal, dominance
//     filter, and compaction fused); a sort runs only when the order is
//     genuinely broken — the wire-sizing fork path, where one candidate
//     forks into one variant per width (Li & Shi, PAPERS.md).
//
//  2. Lazy wire offsets. An unsized wire extension is the same affine map
//     for every candidate of every one of the 2*(max_buffers+1) lists of a
//     node. extend_wire records the wire in O(1) per node; the update is
//     materialized ("flushed") fused into the very next prune scan — the
//     same arithmetic expressions in the same order as the eager kernel, so
//     results stay bit-identical, but the separate write pass and the sort
//     disappear.
//
//  3. Read views instead of snapshots. Buffer insertion must read only
//     pre-insertion candidates (one buffer per node). The seed deep-copies
//     all lists; since insertions only ever append, remembering each
//     bucket's pre-insertion size and scanning that prefix is equivalent
//     and copies nothing.
//
//  4. Structure-of-arrays lanes. Candidate lists live in SoA blocks
//     (core/soa.hpp): one contiguous aligned lane per DP field plus a
//     32-bit plan-ref lane. The hot loops — the fused dead+Pareto prune,
//     the wire-offset flush, and the bucket-major merge — stream one lane
//     at a time as the branch-light sweeps of core/soa_sweeps.hpp.
//     Order-dependent work — tail sorts, cascaded run merges — runs over
//     32-bit index permutations with ONE gather per lane at the end instead
//     of repeatedly moving 48-byte structs.
//
// Candidate blocks are recycled whole through a per-run core::SoAPool, so
// steady-state DP makes no allocator calls. Plans live in the caller's
// PlanArena.
//
// With a SubtreeMemo (core::IncrementalContext), process(v) serves valid
// nodes from the memo and stores every node it recomputes, flushed first:
// each list sees the same apply+prune sequence as at the parent's flush.
//
// The kernel assumes dominance pruning (VgOptions::prune_candidates):
// core::optimize sends the unpruned ablation to the reference kernel.
// Bit-identity with the reference kernel (same pruning decisions, same
// tie-break order, same legacy VgStats counters) is pinned by
// tests/test_vg_kernel.cpp and tests/test_soa_kernel.cpp; the speedup is
// measured by bench/figI_kernel_speedup.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "core/soa.hpp"
#include "core/soa_sweeps.hpp"
#include "core/vg_kernel.hpp"
#include "elmore/slew.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace nbuf::core::detail {

namespace {

// Candidate lists of one node in SoA form: [phase][buffer count], the SoA
// mirror of NodeLists.
struct SoANodeLists {
  std::array<std::vector<SoAList>, 2> by_phase;

  [[nodiscard]] std::size_t total_size() const noexcept {
    std::size_t n = 0;
    for (const auto& phase_lists : by_phase)
      for (const SoAList& list : phase_lists) n += list.size();
    return n;
  }
};

class FastVgRun {
 public:
  FastVgRun(const rct::RoutingTree& tree, const lib::BufferLibrary& lib,
            const VgOptions& opt, PlanArena& arena, SubtreeMemo* memo)
      : tree_(tree),
        lib_(lib),
        opt_(opt),
        sizing_(!opt.wire_widths.empty()),
        arena_(arena),
        memo_(memo),
        type_order_(TypeOrder::make(lib)) {
    for (auto& sizes : view_sizes_) sizes.resize(opt_.max_buffers + 1, 0);
    min_cost_ = 1;
    if (!opt_.buffer_costs.empty())
      min_cost_ = *std::min_element(opt_.buffer_costs.begin(),
                                    opt_.buffer_costs.end());
    stats_.lib_types = lib_.size();
  }

  VgResult run();

 private:
  // Node state: materialized candidate lists plus the wires whose affine
  // update has been recorded but not yet applied (in root-ward order).
  struct Lists {
    SoANodeLists node;
    std::vector<const rct::Wire*> pending;
  };

  Lists process(rct::NodeId v);
  Lists compute(rct::NodeId v);
  void store(const Lists& lists, SubtreeMemo::Node& node) const;
  Lists restore(const SubtreeMemo::Node& node);
  void flush(Lists& lists);
  void extend_wire(Lists& lists, rct::NodeId child);
  void insert_buffers(Lists& lists, rct::NodeId v);
  void insert_buffers_best_pred(Lists& lists, rct::NodeId v);
  Lists merge(Lists l, Lists r);

  void apply_wire_and_prune(SoAList& list, const rct::Wire& w);
  void prune(SoAList& list, bool known_sorted);
  void sort_list(SoAList& list);
  void merge_runs(SoAList& list);
  void merge_tail_and_prune(SoAList& list, std::size_t prefix);
  void release_lists(Lists& lists);

  [[nodiscard]] bool list_is_sorted(const SoAList& list) const {
    const CandSpan s = list.span();
    for (std::size_t i = 1; i < s.n; ++i)
      if (soa_cand_less(s, i, i - 1, arena_)) return false;
    return true;
  }
  void note_created(std::size_t n) { stats_.candidates_generated += n; }

  const rct::RoutingTree& tree_;
  const lib::BufferLibrary& lib_;
  const VgOptions& opt_;
  const bool sizing_;
  PlanArena& arena_;
  SubtreeMemo* memo_;  // null for a cold run
  SoAPool pool_;
  SoAList scratch_;                       // gather target, swapped back
  std::vector<std::uint32_t> perm_;       // index-permutation scratch
  std::vector<std::uint32_t> ia_, jb_;    // merge pair indices
  std::vector<std::size_t> run_bounds_;   // sorted-run starts in merge()
  // Pre-insertion bucket sizes of the node currently in insert_buffers:
  // the read views that replace the seed kernel's NodeLists deep copy.
  std::array<std::vector<std::size_t>, 2> view_sizes_;
  // Best-predecessor machinery: the resistance-descending type walk order,
  // the per-bucket feasibility groups, and each type's chosen predecessor
  // for the bucket currently being processed.
  TypeOrder type_order_;
  BestPredecessors bp_;
  std::vector<BestPredecessors::Choice> selected_;  // by type walk position
  std::vector<BestPredecessors::Choice> chosen_;    // by library id
  std::size_t min_cost_ = 1;
  util::VgStats stats_;
};

// Pareto pruning on (load, slack) only — paper Step 7 — with dead-candidate
// removal (NS < 0) fused into the same lane scan (soa::prune_sweep).
// `known_sorted` callers maintained the sort invariant, so no sort runs.
void FastVgRun::prune(SoAList& list, bool known_sorted) {
  NBUF_TRACE_DETAIL_TAGGED("vg.prune", list.size());
  ++stats_.prune_calls;
  if (known_sorted) {
    ++stats_.prune_sorts_skipped;
  } else {
    sort_list(list);
    ++stats_.prune_sorts;
  }
  const soa::PruneResult pr = soa::prune_sweep(list, opt_.noise_constraints);
  stats_.pruned_infeasible += pr.dead;
  stats_.pruned_inferior += pr.inferior;
  if (!pr.moved) ++stats_.soa_prunes_no_move;
  stats_.peak_list_size = std::max(stats_.peak_list_size, list.size());
  if (verify_lists_enabled(opt_)) verify_cand_list(list.span(), opt_, arena_);
}

// Full re-sort (the wire-sizing fork and the rounding-collision fallback):
// sort an index permutation by the total cand_less order, then gather the
// lanes once. A total order has a unique sorted sequence, so the unstable
// index sort reproduces the value sort bit-for-bit.
void FastVgRun::sort_list(SoAList& list) {
  const std::size_t n = list.size();
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), 0u);
  const CandSpan s = list.span();
  std::sort(perm_.begin(), perm_.end(),  // nbuf-lint: allow(sort)
            [&](std::uint32_t x, std::uint32_t y) {
              return soa_cand_less(s, x, y, arena_);
            });
  soa::gather(list, perm_.data(), n, scratch_);
  list.swap(scratch_);
}

// Copies all six lane slots of src[i] to dst[o]; the lane-wise form of one
// 48-byte AoS struct move (dst and src may be the same list when o and i
// don't overlap a pending read).
inline void copy_elem(SoAList& dst, std::size_t o, const SoAList& src,
                      std::size_t i) {
  dst.load()[o] = src.load()[i];
  dst.slack()[o] = src.slack()[i];
  dst.current()[o] = src.current()[i];
  dst.noise_slack()[o] = src.noise_slack()[i];
  dst.dhat()[o] = src.dhat()[i];
  dst.plan()[o] = src.plan()[i];
}

// Collapses a concatenation of sorted runs (starts in run_bounds_) into one
// sorted order by cascaded pairwise lane merges, ping-ponging between the
// list and the scratch block — O(n log runs) comparisons, no allocation.
// Ties resolve to the earlier run, exactly std::merge's rule.
void FastVgRun::merge_runs(SoAList& list) {
  if (run_bounds_.size() <= 1) return;
  const std::size_t n = list.size();
  while (run_bounds_.size() > 1) {
    scratch_.clear();
    scratch_.reserve(n);
    scratch_.set_size(n);
    const CandSpan s = list.span();
    std::size_t w = 0;
    std::size_t out = 0;  // rewrite run starts in place for the next level
    for (std::size_t r = 0; r < run_bounds_.size(); r += 2) {
      const std::size_t mid =
          r + 1 < run_bounds_.size() ? run_bounds_[r + 1] : n;
      const std::size_t hi =
          r + 2 < run_bounds_.size() ? run_bounds_[r + 2] : n;
      run_bounds_[out++] = w;
      std::size_t i = run_bounds_[r], j = mid;
      while (i < mid && j < hi) {
        if (soa_cand_less(s, j, s, i, arena_)) {
          copy_elem(scratch_, w++, list, j++);
        } else {
          copy_elem(scratch_, w++, list, i++);
        }
      }
      while (i < mid) copy_elem(scratch_, w++, list, i++);
      while (j < hi) copy_elem(scratch_, w++, list, j++);
    }
    run_bounds_.resize(out);
    list.swap(scratch_);
  }
}

// Materializes one lazy wire offset: the exact per-candidate expressions of
// the reference kernel as one elementwise lane sweep (soa::apply_wire). The
// affine map preserves load order, so sortedness is re-checked afterwards
// over the updated lanes — the same neighbor pairs the AoS kernel compared
// during its scan — and a violation (only possible through floating-point
// rounding collisions) falls back to the sorting prune.
void FastVgRun::apply_wire_and_prune(SoAList& list, const rct::Wire& w) {
  ++stats_.offset_flushes;
  stats_.soa_flush_elems += list.size();
  soa::apply_wire(list, w.resistance, w.capacitance, w.coupling_current);
  prune(list, list_is_sorted(list));
}

// Applies every pending wire, oldest first, pruning after each exactly as
// the reference kernel prunes after each extend_wire (under noise
// constraints the intermediate prunes are semantically load-bearing: a
// dominated candidate may only be discarded while its dominator is alive).
void FastVgRun::flush(Lists& lists) {
  if (lists.pending.empty()) return;
  NBUF_TRACE_DETAIL_TAGGED("vg.wire_offset", lists.pending.size());
  for (const rct::Wire* w : lists.pending) {
    for (auto& phase_lists : lists.node.by_phase) {
      for (SoAList& list : phase_lists) {
        if (list.empty()) continue;
        apply_wire_and_prune(list, *w);
      }
    }
  }
  lists.pending.clear();
}

void FastVgRun::extend_wire(Lists& lists, rct::NodeId child) {
  const rct::Wire& w = tree_.node(child).parent_wire;
  if (w.length <= 0.0 && w.resistance <= 0.0 && w.capacitance <= 0.0)
    return;  // binarization dummy
  if (!sizing_) {
    // Lazy: O(1) per node. Materialized fused with the next prune.
    lists.pending.push_back(&w);
    return;
  }
  // Simultaneous wire sizing: every candidate forks into one variant per
  // width (Lillis). The fork interleaves loads, so this is the one path
  // where the sort invariant genuinely breaks and prune must sort.
  NBUF_ASSERT(lists.pending.empty());
  NBUF_TRACE_DETAIL_TAGGED("vg.wire", lists.node.total_size());
  for (auto& phase_lists : lists.node.by_phase) {
    for (SoAList& list : phase_lists) {
      if (list.empty()) continue;
      SoAList expanded = pool_.acquire();
      const std::size_t widths = opt_.wire_widths.size();
      expanded.reserve(list.size() * widths);
      expanded.set_size(list.size() * widths);
      const CandSpan c = list.span();
      double* eload = expanded.load();
      double* eslack = expanded.slack();
      double* ecurrent = expanded.current();
      double* enoise = expanded.noise_slack();
      double* edhat = expanded.dhat();
      PlanRef* eplan = expanded.plan();
      std::size_t o = 0;
      for (std::size_t ci = 0; ci < c.n; ++ci) {
        for (std::size_t wi = 0; wi < widths; ++wi, ++o) {
          const lib::WireWidth& ww = opt_.wire_widths.at(wi);
          const double res = w.resistance * ww.res_scale;
          const double cap = w.capacitance * ww.cap_scale;
          const double cur = w.coupling_current * ww.coupling_scale;
          const double wire_delay = res * (cap / 2.0 + c.load[ci]);
          eload[o] = c.load[ci] + cap;
          eslack[o] = c.slack[ci] - wire_delay;
          ecurrent[o] = c.current[ci] + cur;
          enoise[o] = c.noise_slack[ci] - res * (cur / 2.0 + c.current[ci]);
          edhat[o] = c.dhat[ci] + wire_delay;
          eplan[o] = wi == 0 ? c.plan[ci]
                             : arena_.wire_ref(c.plan[ci],
                                               PlannedWire{child, wi});
        }
      }
      note_created(o);
      pool_.release(std::move(list));
      list = std::move(expanded);
      prune(list, /*known_sorted=*/false);
    }
  }
}

// Folds the freshly appended buffer candidates (a small sorted-after-sort
// tail — at most one per library type) back into the sorted prefix without
// rewriting the list: the tail is buffered into the scratch block and
// merged backward in place. No full sort, no allocation, and prefix
// elements below the lowest tail element never move.
void FastVgRun::merge_tail_and_prune(SoAList& list, std::size_t prefix) {
  const std::size_t n = list.size();
  const std::size_t t = n - prefix;
  const CandSpan s = list.span();
  perm_.resize(t);
  std::iota(perm_.begin(), perm_.end(), static_cast<std::uint32_t>(prefix));
  std::sort(perm_.begin(), perm_.end(),  // nbuf-lint: allow(sort)
            [&](std::uint32_t x, std::uint32_t y) {
              return soa_cand_less(s, x, y, arena_);
            });
  scratch_.clear();
  scratch_.reserve(t);
  scratch_.set_size(t);
  for (std::size_t o = 0; o < t; ++o) copy_elem(scratch_, o, list, perm_[o]);
  // Backward in-place merge of the sorted prefix with the buffered tail:
  // always emit the largest remaining element at the back. Writes stay
  // strictly above the unread prefix (w = i + j > i), and once the tail is
  // exhausted the remaining prefix is already in place. An exact total-
  // order tie means identical candidate content, so either emission order
  // reproduces the std::merge sequence.
  const CandSpan tail = scratch_.span();
  std::size_t i = prefix, j = t, w = n;
  while (j > 0) {
    if (i > 0 && soa_cand_less(tail, j - 1, s, i - 1, arena_)) {
      --w;
      --i;
      copy_elem(list, w, list, i);
    } else {
      --w;
      --j;
      copy_elem(list, w, scratch_, j);
    }
  }
  prune(list, /*known_sorted=*/true);
}

void FastVgRun::insert_buffers(Lists& lists, rct::NodeId v) {
  flush(lists);
  // Offset-flush invariant: buffer insertion must read fully materialized
  // candidates — a pending wire here would mean the views below are stale.
  NBUF_ASSERT_MSG(lists.pending.empty(),
                  "lazy wire offsets must be flushed before insert_buffers");
  NBUF_TRACE_DETAIL_TAGGED("vg.buffer", lists.node.total_size());
  // Read views: every type considers only unbuffered-at-v candidates,
  // enforcing one buffer per node (Step 5). Appends only ever push beyond
  // each bucket's pre-insertion size, so scanning that prefix reads exactly
  // what the seed kernel's full NodeLists snapshot held — without the copy.
  for (int phase = 0; phase < 2; ++phase) {
    for (std::size_t k = 0; k <= opt_.max_buffers; ++k) {
      const std::size_t n = lists.node.by_phase[phase][k].size();
      view_sizes_[phase][k] = n;
      stats_.snapshot_cands_avoided += n;
    }
  }
  insert_buffers_best_pred(lists, v);
  const std::size_t bucket_count = opt_.max_buffers + 1;
  for (int phase = 0; phase < 2; ++phase) {
    for (std::size_t k = 0; k < bucket_count; ++k) {
      SoAList& list = lists.node.by_phase[phase][k];
      const std::size_t prefix = view_sizes_[phase][k];
      if (list.size() == prefix) continue;  // untouched: still Pareto-sorted
      merge_tail_and_prune(list, prefix);
    }
  }
}

// Grouped insertion: bucket-major so each bucket's
// feasibility groups are built once (one binary search per candidate) and
// every type's best predecessor comes out of one predicate-free
// candidate-major pass (select_all). New candidates are buffered per type
// and appended in library-id order:
// the reference kernel emits types in that order and the tail sort is not
// stable, so the append order is part of the bit-identity contract.
void FastVgRun::insert_buffers_best_pred(Lists& lists, rct::NodeId v) {
  const std::size_t bucket_count = opt_.max_buffers + 1;
  const std::size_t type_count = lib_.size();
  for (int in_phase = 0; in_phase < 2; ++in_phase) {
    auto& buckets = lists.node.by_phase[in_phase];
    for (std::size_t k = 0; k + min_cost_ < bucket_count; ++k) {
      const std::size_t view_n = view_sizes_[in_phase][k];
      if (view_n == 0) continue;
      // The view's lanes stay valid through the emit loop: every append
      // lands in bucket k + cost (cost >= 1), never in bucket k itself.
      const CandSpan view = buckets[k].span(view_n);
      bp_.prepare(view, opt_, lib_, type_order_);
      ++stats_.bp_prune_calls;
      stats_.bp_candidates_killed += bp_.killed();
      bp_.select_all(lib_, type_order_, selected_);
      chosen_.assign(type_count, {});
      for (std::size_t pos = 0; pos < type_count; ++pos) {
        const lib::BufferId bid = type_order_.ids[pos];
        const std::size_t cost =
            opt_.buffer_costs.empty() ? 1 : opt_.buffer_costs[bid.value()];
        // A choice whose target bucket overflows the count cap is simply
        // discarded — the reference loop never evaluates those types.
        if (k + cost >= bucket_count) continue;
        chosen_[bid.value()] = selected_[pos];
      }
      for (std::size_t t = 0; t < type_count; ++t) {
        const BestPredecessors::Choice& ch = chosen_[t];
        if (ch.idx == BestPredecessors::Choice::kNone) continue;
        const lib::BufferId bid{
            static_cast<lib::BufferId::underlying_type>(t)};
        const lib::BufferType& b = lib_.at(bid);
        const std::size_t cost =
            opt_.buffer_costs.empty() ? 1 : opt_.buffer_costs[t];
        const int out_phase = b.inverting ? 1 - in_phase : in_phase;
        note_created(1);
        // Dominated at birth: the target bucket's pre-insertion staircase
        // (its read view — exactly what the reference kernel snapshots)
        // guarantees the next merge_tail_and_prune would delete this
        // candidate, so book the generate+prune pair and skip the arena
        // node, the append, and the merge churn. The reference kernel
        // applies the same predicate against the same view, keeping the
        // kernels bit-identical.
        SoAList& target = lists.node.by_phase[out_phase][k + cost];
        if (dominated_by_staircase(target.load(), target.slack(),
                                   view_sizes_[out_phase][k + cost],
                                   b.input_cap, ch.q)) {
          ++stats_.pruned_inferior;
          continue;
        }
        target.push_back(
            b.input_cap, ch.q, 0.0, b.noise_margin, 0.0,
            arena_.buffer_ref(view.plan[ch.idx], PlannedBuffer{v, 0.0, bid}));
      }
    }
  }
}

void FastVgRun::release_lists(Lists& lists) {
  for (auto& phase_lists : lists.node.by_phase)
    for (SoAList& list : phase_lists) pool_.release(std::move(list));
}

FastVgRun::Lists FastVgRun::merge(Lists l, Lists r) {
  flush(l);
  flush(r);
  NBUF_ASSERT_MSG(l.pending.empty() && r.pending.empty(),
                  "lazy wire offsets must be flushed before merge");
  NBUF_TRACE_DETAIL_TAGGED("vg.merge",
                           l.node.total_size() + r.node.total_size());
  const std::size_t kmax = opt_.max_buffers;
  Lists out;
  for (auto& pl : out.node.by_phase) pl.resize(kmax + 1);
  // Output-bucket-major so all (kl, kr) contributions to one bucket are
  // consecutive: each contribution is one sorted run (the Van Ginneken
  // linear merge emits loads in ascending order), and the runs fold back
  // into one sorted list without a sort.
  for (int phase = 0; phase < 2; ++phase) {
    for (std::size_t ks = 0; ks <= kmax; ++ks) {
      SoAList& dst = out.node.by_phase[phase][ks];
      run_bounds_.clear();
      for (std::size_t kl = 0; kl <= ks; ++kl) {
        const SoAList& a = l.node.by_phase[phase][kl];
        if (a.empty()) continue;
        const SoAList& b = r.node.by_phase[phase][ks - kl];
        if (b.empty()) continue;
        if (dst.capacity() == 0) dst = pool_.acquire();
        run_bounds_.push_back(dst.size());
        // Van Ginneken linear merge, split lane-wise: the sequential
        // advance walk records index pairs, then one gather pass fills
        // the value lanes and a second loop allocates the plan merges.
        const CandSpan sa = a.span();
        const CandSpan sb = b.span();
        const std::size_t m = soa::emit_pairs(sa, sb, ia_, jb_);
        const std::size_t base = dst.size();
        soa::merge_fill(sa, sb, ia_.data(), jb_.data(), m, dst);
        PlanRef* dp = dst.plan() + base;
        for (std::size_t o = 0; o < m; ++o)
          dp[o] = arena_.merge_ref(sa.plan[ia_[o]], sb.plan[jb_[o]]);
        note_created(m);
        stats_.merged += m;
      }
      if (dst.empty()) continue;
      merge_runs(dst);
      // The runs are sorted by construction up to floating-point rounding
      // collisions (an equal-load pair inside a run arrives slack-ascending,
      // the reverse of the prune order); verify instead of assuming so the
      // rare collision falls back to the sorting path bit-identically.
      prune(dst, list_is_sorted(dst));
    }
  }
  release_lists(l);
  release_lists(r);
  return out;
}

FastVgRun::Lists FastVgRun::process(rct::NodeId v) {
  if (memo_ == nullptr) return compute(v);
  SubtreeMemo::Node& cached = memo_->nodes[v.value()];
  if (cached.valid) {
    ++memo_->reused;
    return restore(cached);
  }
  Lists lists = compute(v);
  // Nothing cached may point into the tree: a later split_wire can
  // reallocate the node storage the pending rct::Wire pointers address.
  flush(lists);
  store(lists, cached);
  ++memo_->recomputed;
  return lists;
}

void FastVgRun::store(const Lists& lists, SubtreeMemo::Node& node) const {
  const std::size_t total = lists.node.total_size();
  node.offsets.clear();
  node.values.clear();
  node.values.reserve(5 * total);
  node.plans.clear();
  node.plans.reserve(total);
  for (const auto& phase_lists : lists.node.by_phase) {
    for (const SoAList& list : phase_lists) {
      node.offsets.push_back(static_cast<std::uint32_t>(node.plans.size()));
      const CandSpan s = list.span();
      for (const double* lane :
           {s.load, s.slack, s.current, s.noise_slack, s.dhat})
        node.values.insert(node.values.end(), lane, lane + s.n);
      node.plans.insert(node.plans.end(), s.plan, s.plan + s.n);
    }
  }
  node.offsets.push_back(static_cast<std::uint32_t>(total));
  node.valid = true;
}

FastVgRun::Lists FastVgRun::restore(const SubtreeMemo::Node& node) {
  Lists lists;
  std::size_t b = 0;
  for (auto& phase_lists : lists.node.by_phase) {
    phase_lists.resize(opt_.max_buffers + 1);
    for (SoAList& list : phase_lists) {
      const std::size_t at = node.offsets[b];
      const std::size_t n = node.offsets[++b] - at;
      if (n == 0) continue;
      list = pool_.acquire();
      list.reserve(n);
      list.set_size(n);
      const double* from = node.values.data() + 5 * at;
      for (double* lane : {list.load(), list.slack(), list.current(),
                           list.noise_slack(), list.dhat()}) {
        std::copy_n(from, n, lane);
        from += n;
      }
      std::copy_n(node.plans.data() + at, n, list.plan());
    }
  }
  return lists;
}

FastVgRun::Lists FastVgRun::compute(rct::NodeId v) {
  const rct::Node& n = tree_.node(v);

  if (n.kind == rct::NodeKind::Sink) {
    Lists lists;
    for (auto& pl : lists.node.by_phase) pl.resize(opt_.max_buffers + 1);
    const rct::SinkInfo& si = tree_.sink(n.sink);
    SoAList& seedlist =
        lists.node.by_phase[si.require_inverted ? 1 : 0][0];
    seedlist = pool_.acquire();
    seedlist.push_back(si.cap, si.required_arrival, 0.0, si.noise_margin,
                       0.0, kNullPlan);
    note_created(1);
    return lists;
  }

  NBUF_EXPECTS_MSG(n.children.size() <= 2,
                   "Van Ginneken DP needs a binary tree");
  NBUF_EXPECTS_MSG(!n.children.empty(), "internal node without children");
  // Children lists are built recursively and climbed through their wires.
  Lists acc = process(n.children.front());
  extend_wire(acc, n.children.front());
  if (n.children.size() == 2) {
    Lists rightl = process(n.children.back());
    extend_wire(rightl, n.children.back());
    acc = merge(std::move(acc), std::move(rightl));
  }
  if (n.kind == rct::NodeKind::Internal && n.buffer_allowed)
    insert_buffers(acc, v);
  return acc;
}

VgResult FastVgRun::run() {
  if (memo_ != nullptr) {
    memo_->nodes.resize(tree_.node_count());  // trees only grow
    memo_->reused = 0;
    memo_->recomputed = 0;
  }
  Lists at_source = process(tree_.source());
  // The source keeps no pending wires in the reference kernel; flush so the
  // driver fold reads materialized, pruned lists.
  flush(at_source);
  NBUF_ASSERT_MSG(at_source.pending.empty(),
                  "lazy wire offsets must be flushed before the driver fold");
  stats_.pool_reuses = pool_.reuses();
  // Materialize the source lists as AoS NodeLists for the shared driver
  // fold (finalize is common to both kernels) — a one-time conversion
  // linear in the surviving source candidates.
  NodeLists node;
  for (int phase = 0; phase < 2; ++phase) {
    node.by_phase[phase].resize(opt_.max_buffers + 1);
    for (std::size_t k = 0; k <= opt_.max_buffers; ++k) {
      const CandSpan s = at_source.node.by_phase[phase][k].span();
      CandList& out = node.by_phase[phase][k];
      out.reserve(s.n);
      for (std::size_t i = 0; i < s.n; ++i)
        out.push_back(VgCand{s.load[i], s.slack[i], s.current[i],
                             s.noise_slack[i], s.dhat[i],
                             arena_.cell(s.plan[i])});
    }
  }
  return finalize(node, tree_, opt_, stats_);
}

}  // namespace

TypeOrder TypeOrder::make(const lib::BufferLibrary& lib) {
  TypeOrder order;
  order.ids = lib.ids();
  // Resistance descending; stable so equal-R types keep library-id order
  // (their feasibility predicates are then interchangeable).
  std::stable_sort(order.ids.begin(), order.ids.end(),
                   [&lib](lib::BufferId a, lib::BufferId b) {
                     return lib.at(a).resistance > lib.at(b).resistance;
                   });
  return order;
}

void BestPredecessors::prepare(const CandSpan& view, const VgOptions& opt,
                               const lib::BufferLibrary& lib,
                               const TypeOrder& order) {
  view_ = view;
  groups_.clear();
  killed_ = 0;
  const std::size_t n = view.n;
  const std::size_t m = order.ids.size();
  const bool noise = opt.noise_constraints;
  const bool slew = opt.max_slew < std::numeric_limits<double>::infinity();
  if (!noise && !slew) {
    // Unconstrained bucket: every type is feasible for every candidate
    // (tmin == 0 across the board), so the whole view is one group in
    // index order and the permutation — the identity — is never
    // materialized. select_all detects this shape and reads the lanes
    // directly.
    if (n > 0) groups_.push_back(Group{0, 0, n});
    return;
  }
  // Feasibility of inserting the type at walk position `pos` on top of
  // candidate i, with the kernels' exact threshold comparisons (never
  // rearranged: the binary search must agree bit-for-bit with the naive
  // scan's skips).
  const auto feasible = [&](std::size_t i, std::size_t pos) {
    const double r = lib.at(order.ids[pos]).resistance;
    if (noise && r * view.current[i] > view.noise_slack[i]) return false;
    return !(elmore::kSlewFactor * (r * view.load[i] + view.dhat[i]) >
             opt.max_slew);
  };
  tmin_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (feasible(i, 0)) continue;  // the common case: tmin stays 0
    // Both thresholds are products monotone in R under IEEE rounding, so
    // along the R-descending walk order the feasible types form a suffix:
    // binary-search its first position (m = feasible for no type).
    std::size_t lo = 1, hi = m;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (feasible(i, mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    tmin_[i] = lo;
  }
  // Counting-bucket the candidates by first feasible type. Each group is a
  // subsequence of the bucket's Pareto staircase — itself a staircase — so
  // iterating candidates in index order fills every group in index order.
  counts_.assign(m + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++counts_[tmin_[i]];
  std::size_t offset = 0;
  for (std::size_t t = 0; t <= m; ++t) {
    const std::size_t c = counts_[t];
    counts_[t] = offset;
    offset += c;
  }
  sorted_.resize(n);
  for (std::size_t i = 0; i < n; ++i) sorted_[counts_[tmin_[i]]++] = i;
  // counts_[t] now holds the END of group t's slice; group t's candidates
  // sit in sorted_[counts_[t-1], counts_[t]), index ascending (the counting
  // sort is stable). Record every nonempty group's slice; t == m means
  // feasible for no type — those candidates are dead and never scanned.
  std::size_t begin = 0;
  for (std::size_t t = 0; t < m; ++t) {
    const std::size_t end = counts_[t];
    if (end == begin) continue;
    groups_.push_back(Group{t, begin, end});
    begin = end;
  }
  killed_ = n - begin;
}

void BestPredecessors::select_all(const lib::BufferLibrary& lib,
                                  const TypeOrder& order,
                                  std::vector<Choice>& out) {
  const std::size_t m = order.ids.size();
  res_.resize(m);
  delay_.resize(m);
  for (std::size_t t = 0; t < m; ++t) {
    const lib::BufferType& b = lib.at(order.ids[t]);
    res_[t] = b.resistance;
    delay_[t] = b.intrinsic_delay;
  }
  // Accumulators mirror the reference scan's start state: q must beat
  // -inf STRICTLY before an index is recorded, so a candidate whose q is
  // -inf (or NaN) never wins — exactly as in the naive loop.
  best_q_.assign(m, -std::numeric_limits<double>::infinity());
  best_i_.assign(m, Choice::kNone);
  // Candidate-major: one pass over the grouped permutation, each
  // candidate's lanes loaded once and folded into the accumulator of
  // every type in its feasible suffix. The update keeps the minimum index
  // among bit-equal q maxima — the reference's first-wins choice restated
  // order-independently — because indices interleave across groups here.
  const auto fold = [this, m](std::size_t idx, std::size_t t0) {
    const double sl = view_.slack[idx];
    const double ld = view_.load[idx];
    for (std::size_t t = t0; t < m; ++t) {
      const double q = sl - delay_[t] - res_[t] * ld;
      if (q > best_q_[t] || (q == best_q_[t] &&
                             best_i_[t] != Choice::kNone &&
                             idx < best_i_[t])) {
        best_q_[t] = q;
        best_i_[t] = idx;
      }
    }
  };
  // One all-feasible group in index order means the permutation is the
  // identity (prepare's unconstrained fast path never even builds it):
  // walk the lanes directly, in hardware-prefetch order.
  if (killed_ == 0 && groups_.size() == 1 && groups_[0].first_type == 0) {
    for (std::size_t idx = groups_[0].begin; idx < groups_[0].end; ++idx)
      fold(idx, 0);
  } else {
    for (const Group& g : groups_)
      for (std::size_t s = g.begin; s < g.end; ++s)
        fold(sorted_[s], g.first_type);
  }
  out.assign(m, Choice{});
  for (std::size_t t = 0; t < m; ++t) {
    if (best_i_[t] == Choice::kNone) continue;
    out[t].idx = best_i_[t];
    out[t].q = best_q_[t];
  }
}

VgResult run_fast_kernel(const rct::RoutingTree& tree,
                         const lib::BufferLibrary& lib, const VgOptions& opt,
                         PlanArena& arena, SubtreeMemo* memo) {
  NBUF_ASSERT(opt.prune_candidates);
  FastVgRun run(tree, lib, opt, arena, memo);
  return run.run();
}

}  // namespace nbuf::core::detail
