// The fast Van Ginneken kernel (default; see VgKernel::Fast).
//
// Two structural observations make the seed kernel's per-prune std::sort
// and per-node deep copies unnecessary, and a third keeps one candidate
// form for both kernels:
//
//  1. Sort invariant. Every prune leaves its list sorted by (load asc,
//     slack desc) and — with dominance pruning on — strictly ascending in
//     both load and slack (a Pareto staircase). An unsized wire extension
//     maps every candidate with the same monotone affine update, so the
//     sorted order survives; the Van Ginneken two-list merge emits loads in
//     ascending order by construction; and buffer insertion's fresh
//     candidates (at most one per type and bucket) sort among themselves
//     and fold in by one merge pass. Pruning is therefore a single linear
//     scan (dead-candidate removal, dominance filter, and compaction
//     fused); a sort runs only when the order is genuinely broken — the
//     wire-sizing fork path, where one candidate forks into one variant per
//     width (Li & Shi, PAPERS.md).
//
//  2. Select, collect, fuse. Buffer insertion must read only
//     pre-insertion candidates (one buffer per node); the reference kernel
//     deep-copies all lists. Here buckets run from the highest count down:
//     one select_best_predecessors call per nonempty (phase, count) view
//     answers every type of the library, and each answer is
//     only recorded — a 32-byte BufferRecord, with no plan cell and no list
//     append. Bucket k's records land in bucket k + 1, whose own view was
//     read one step earlier, so the lists themselves are the snapshot. One
//     forward pass per target (fuse_buffer_tail) merges the sorted records
//     into the staircase, drops records dominated at birth, prunes, and
//     allocates plan cells for the surviving records only.
//
//  3. One candidate form. The lists are the reference kernel's own
//     VgCand lists (NodeLists), so the driver fold (finalize) reads the
//     source lists as they are and the one cand_less order and one
//     verify_cand_list serve both kernels. The list steps are the plain
//     sweeps of core/cand_sweeps.hpp.
//
// Lists are plain vectors, made and dropped with their nodes; plans live in
// the caller's PlanArena.
//
// With a SubtreeMemo (core::IncrementalContext), process(v) serves valid
// nodes from the memo and stores every node it recomputes.
//
// The kernel assumes dominance pruning (VgOptions::prune_candidates):
// core::optimize sends the unpruned ablation to the reference kernel.
// Bit-identity with the reference kernel (same pruning decisions, same
// tie-break order, same legacy VgStats counters) is pinned by
// tests/test_vg_kernel.cpp and tests/test_fast_kernel.cpp; the speedup is
// measured by bench/figI_kernel_speedup.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "core/cand_sweeps.hpp"
#include "core/vg_kernel.hpp"
#include "elmore/slew.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace nbuf::core::detail {

namespace {

class FastVgRun {
 public:
  FastVgRun(const rct::RoutingTree& tree, const lib::BufferLibrary& lib,
            const VgOptions& opt, PlanArena& arena, SubtreeMemo* memo)
      : tree_(tree),
        lib_(lib),
        opt_(opt),
        sizing_(!opt.wire_widths.empty()),
        arena_(arena),
        memo_(memo) {
    for (auto& best : best_) best.resize(lib_.size());
    // Resistance is the only type parameter the feasibility predicates
    // read, and both are monotone in it: a view entry infeasible for the
    // lowest-R type is infeasible for every type.
    const auto& types = lib_.types();
    for (std::size_t t = 0; t < types.size(); ++t)
      if (types[t].resistance < types[min_r_type_].resistance)
        min_r_type_ = t;
    stats_.lib_types = lib_.size();
  }

  VgResult run();

 private:
  NodeLists process(rct::NodeId v);
  NodeLists compute(rct::NodeId v);
  void store(const NodeLists& lists, SubtreeMemo::Node& node) const;
  NodeLists restore(const SubtreeMemo::Node& node) const;
  void extend_wire(NodeLists& lists, rct::NodeId child);
  void insert_buffers(NodeLists& lists, rct::NodeId v);
  NodeLists merge(const NodeLists& l, const NodeLists& r);

  void prune(CandList& list, bool known_sorted);
  void merge_runs(CandList& list);

  [[nodiscard]] auto order() const {
    return [this](const VgCand& a, const VgCand& b) {
      return cand_less(a, b, arena_);
    };
  }
  [[nodiscard]] bool is_sorted(const CandList& list) const {
    return std::is_sorted(list.begin(), list.end(), order());
  }
  void note_created(std::size_t n) { stats_.candidates_generated += n; }

  const rct::RoutingTree& tree_;
  const lib::BufferLibrary& lib_;
  const VgOptions& opt_;
  const bool sizing_;
  PlanArena& arena_;
  SubtreeMemo* memo_;  // null for a cold run
  CandList scratch_;                      // merge target, swapped back
  std::vector<std::size_t> run_bounds_;   // sorted-run starts in merge()
  std::vector<BufferRecord> tail_;  // insert_buffers' records of one target
  // Selection answers per type (lib_.ids() order) for both phases of the
  // current bucket.
  std::array<std::vector<BestPredecessor>, 2> best_;
  std::size_t min_r_type_ = 0;
  util::VgStats stats_;
};

// Pareto pruning on (load, slack) only — paper Step 7 — with dead-candidate
// removal (NS < 0) fused into the same scan (sweeps::prune_sweep).
// `known_sorted` callers maintained the sort invariant, so no sort runs.
// Otherwise (the wire-sizing fork and the rounding-collision fallback) the
// list is sorted by the total cand_less order, whose unique sorted
// sequence is the reference kernel's.
void FastVgRun::prune(CandList& list, bool known_sorted) {
  NBUF_TRACE_DETAIL_TAGGED("vg.prune", list.size());
  ++stats_.prune_calls;
  if (!known_sorted) {
    std::sort(list.begin(), list.end(), order());  // nbuf-lint: allow(sort)
    ++stats_.prune_sorts;
  }
  const sweeps::PruneResult pr =
      sweeps::prune_sweep(list, opt_.noise_constraints);
  stats_.pruned_infeasible += pr.dead;
  stats_.pruned_inferior += pr.inferior;
  if (!pr.moved) ++stats_.prunes_no_move;
  stats_.peak_list_size = std::max(stats_.peak_list_size, list.size());
  if (verify_lists_enabled(opt_)) verify_cand_list(list, opt_, arena_);
}

// Collapses a concatenation of sorted runs (starts in run_bounds_) into one
// sorted order by cascaded pairwise std::merge passes, ping-ponging between
// the list and the scratch list — O(n log runs) comparisons. Ties resolve
// to the earlier run.
void FastVgRun::merge_runs(CandList& list) {
  while (run_bounds_.size() > 1) {
    scratch_.clear();
    scratch_.reserve(list.size());
    const std::size_t runs = run_bounds_.size();
    const auto at = [&](std::size_t r) {
      return r < runs ? list.begin() + static_cast<std::ptrdiff_t>(
                                           run_bounds_[r])
                      : list.end();
    };
    std::size_t out = 0;  // rewrite run starts in place for the next level
    for (std::size_t r = 0; r < runs; r += 2) {
      const auto lo = at(r), mid = at(r + 1), hi = at(r + 2);
      run_bounds_[out++] = scratch_.size();
      std::merge(lo, mid, mid, hi, std::back_inserter(scratch_), order());
    }
    run_bounds_.resize(out);
    list.swap(scratch_);
  }
}

void FastVgRun::extend_wire(NodeLists& lists, rct::NodeId child) {
  const rct::Wire& w = tree_.node(child).parent_wire;
  if (w.length <= 0.0 && w.resistance <= 0.0 && w.capacitance <= 0.0)
    return;  // binarization dummy
  NBUF_TRACE_DETAIL_TAGGED("vg.wire", lists.total_size());
  if (!sizing_) {
    // The reference kernel's per-candidate expressions as one sweep, then
    // the prune. The affine map preserves load order, so the sweep re-checks
    // sortedness as it goes; a violation (only possible through
    // floating-point rounding collisions) falls back to the sorting prune.
    for (auto& phase_lists : lists.by_phase) {
      for (CandList& list : phase_lists) {
        if (list.empty()) continue;
        prune(list, sweeps::apply_wire(list, w.resistance, w.capacitance,
                                       w.coupling_current, arena_));
      }
    }
    return;
  }
  // Simultaneous wire sizing: every candidate forks into one variant per
  // width (Lillis). The fork interleaves loads, so this is the one path
  // where the sort invariant genuinely breaks and prune must sort.
  for (auto& phase_lists : lists.by_phase) {
    for (CandList& list : phase_lists) {
      if (list.empty()) continue;
      CandList expanded;
      const std::size_t widths = opt_.wire_widths.size();
      expanded.reserve(list.size() * widths);
      for (const VgCand& c : list) {
        for (std::size_t wi = 0; wi < widths; ++wi) {
          const lib::WireWidth& ww = opt_.wire_widths.at(wi);
          const double res = w.resistance * ww.res_scale;
          const double cap = w.capacitance * ww.cap_scale;
          const double cur = w.coupling_current * ww.coupling_scale;
          const double wire_delay = res * (cap / 2.0 + c.load);
          expanded.push_back(VgCand{
              c.load + cap, c.slack - wire_delay, c.current + cur,
              c.noise_slack - res * (cur / 2.0 + c.current),
              c.dhat + wire_delay,
              wi == 0 ? c.plan : arena_.wire(c.plan, PlannedWire{child, wi})});
        }
      }
      note_created(expanded.size());
      list = std::move(expanded);
      prune(list, /*known_sorted=*/false);
    }
  }
}

// Fig. 11 Step 5. Every type reads only unbuffered-at-v candidates (one
// buffer per node). A candidate of count k buffered here lands in bucket
// k + 1, so buckets run in descending k: when bucket k's records fold into
// bucket k + 1, that bucket's own pre-insertion view has already been read,
// and the lists themselves are the reference kernel's snapshot. Both
// phases of bucket k are selected for all types first; then each phase of
// bucket k + 1 folds in its records (buffers of the same phase, inverters
// of the other) in one fuse.
void FastVgRun::insert_buffers(NodeLists& lists, rct::NodeId v) {
  NBUF_TRACE_DETAIL_TAGGED("vg.buffer", lists.total_size());
  for (std::size_t k = opt_.max_buffers; k-- > 0;) {
    const std::array<bool, 2> has_view = {!lists.by_phase[0][k].empty(),
                                          !lists.by_phase[1][k].empty()};
    if (!has_view[0] && !has_view[1]) continue;
    for (int phase = 0; phase < 2; ++phase) {
      if (!has_view[phase]) continue;
      ++stats_.bp_prune_calls;
      select_best_predecessors(lists.by_phase[phase][k], lib_.types(),
                               opt_.noise_constraints, opt_.max_slew,
                               best_[phase]);
      stats_.bp_candidates_killed += best_[phase][min_r_type_].infeasible;
    }
    for (int phase = 0; phase < 2; ++phase) {
      tail_.clear();
      for (std::size_t t = 0; t < lib_.size(); ++t) {
        const lib::BufferType& b = lib_.types()[t];
        const int in_phase = b.inverting ? 1 - phase : phase;
        if (!has_view[in_phase]) continue;
        const CandList& view = lists.by_phase[in_phase][k];
        const BestPredecessor& best = best_[in_phase][t];
        if (best.idx == BestPredecessor::kNone) continue;
        note_created(1);
        tail_.push_back(BufferRecord{
            b.input_cap, best.q, b.noise_margin, view[best.idx].plan,
            lib::BufferId{static_cast<lib::BufferId::underlying_type>(t)}});
      }
      if (tail_.empty()) continue;
      CandList& list = lists.by_phase[phase][k + 1];
      const FuseCounts c =
          fuse_buffer_tail(list, tail_.data(), tail_.size(), v,
                           opt_.noise_constraints, arena_, scratch_);
      stats_.pruned_inferior += c.born_dominated;
      if (c.passed == 0) continue;  // untouched: still Pareto-sorted
      // The pass ends in the prune of a bucket that gained candidates.
      ++stats_.prune_calls;
      stats_.pruned_infeasible += c.dead;
      stats_.pruned_inferior += c.inferior;
      if (c.dead + c.inferior == 0) ++stats_.prunes_no_move;
      stats_.peak_list_size = std::max(stats_.peak_list_size, list.size());
      if (verify_lists_enabled(opt_)) verify_cand_list(list, opt_, arena_);
    }
  }
}

NodeLists FastVgRun::merge(const NodeLists& l, const NodeLists& r) {
  NBUF_TRACE_DETAIL_TAGGED("vg.merge", l.total_size() + r.total_size());
  const std::size_t kmax = opt_.max_buffers;
  NodeLists out;
  for (auto& pl : out.by_phase) pl.resize(kmax + 1);
  // Output-bucket-major so all (kl, kr) contributions to one bucket are
  // consecutive: each contribution is one sorted run (the Van Ginneken
  // linear merge emits loads in ascending order), and the runs fold back
  // into one sorted list without a sort.
  for (int phase = 0; phase < 2; ++phase) {
    for (std::size_t ks = 0; ks <= kmax; ++ks) {
      CandList& dst = out.by_phase[phase][ks];
      run_bounds_.clear();
      for (std::size_t kl = 0; kl <= ks; ++kl) {
        const CandList& a = l.by_phase[phase][kl];
        if (a.empty()) continue;
        const CandList& b = r.by_phase[phase][ks - kl];
        if (b.empty()) continue;
        run_bounds_.push_back(dst.size());
        const std::size_t m = sweeps::merge_sweep(a, b, arena_, dst);
        note_created(m);
        stats_.merged += m;
      }
      if (dst.empty()) continue;
      merge_runs(dst);
      // The runs are sorted by construction up to floating-point rounding
      // collisions (an equal-load pair inside a run arrives slack-ascending,
      // the reverse of the prune order); verify instead of assuming so the
      // rare collision falls back to the sorting path bit-identically.
      prune(dst, is_sorted(dst));
    }
  }
  return out;
}

NodeLists FastVgRun::process(rct::NodeId v) {
  if (memo_ == nullptr) return compute(v);
  SubtreeMemo::Node& cached = memo_->nodes[v.value()];
  if (cached.valid) {
    ++memo_->reused;
    return restore(cached);
  }
  NodeLists lists = compute(v);
  store(lists, cached);
  ++memo_->recomputed;
  return lists;
}

void FastVgRun::store(const NodeLists& lists, SubtreeMemo::Node& node) const {
  node.offsets.clear();
  node.cands.clear();
  node.cands.reserve(lists.total_size());
  for (const auto& phase_lists : lists.by_phase) {
    for (const CandList& list : phase_lists) {
      node.offsets.push_back(static_cast<std::uint32_t>(node.cands.size()));
      node.cands.insert(node.cands.end(), list.begin(), list.end());
    }
  }
  node.offsets.push_back(static_cast<std::uint32_t>(node.cands.size()));
  node.valid = true;
}

// A node cached under a lower site clamp (core::IncrementalContext re-clamps
// max_buffers as splits add sites) holds fewer buckets per phase. Its
// subtree had no more sites than that clamp, so the buckets above are
// empty: restoring pads them, exactly as a recompute would fill them.
NodeLists FastVgRun::restore(const SubtreeMemo::Node& node) const {
  const std::size_t cached = (node.offsets.size() - 1) / 2;
  NBUF_ASSERT(cached <= opt_.max_buffers + 1);  // sites never go away
  NodeLists lists;
  std::size_t b = 0;
  for (auto& phase_lists : lists.by_phase) {
    phase_lists.resize(opt_.max_buffers + 1);
    for (std::size_t k = 0; k < cached; ++k, ++b)
      phase_lists[k].assign(node.cands.begin() + node.offsets[b],
                            node.cands.begin() + node.offsets[b + 1]);
  }
  return lists;
}

NodeLists FastVgRun::compute(rct::NodeId v) {
  const rct::Node& n = tree_.node(v);

  if (n.kind == rct::NodeKind::Sink) {
    NodeLists lists;
    for (auto& pl : lists.by_phase) pl.resize(opt_.max_buffers + 1);
    const rct::SinkInfo& si = tree_.sink(n.sink);
    lists.by_phase[si.require_inverted ? 1 : 0][0].push_back(VgCand{
        si.cap, si.required_arrival, 0.0, si.noise_margin, 0.0, kNullPlan});
    note_created(1);
    return lists;
  }

  NBUF_EXPECTS_MSG(n.children.size() <= 2,
                   "Van Ginneken DP needs a binary tree");
  NBUF_EXPECTS_MSG(!n.children.empty(), "internal node without children");
  // Children lists are built recursively and climbed through their wires.
  NodeLists acc = process(n.children.front());
  extend_wire(acc, n.children.front());
  if (n.children.size() == 2) {
    NodeLists rightl = process(n.children.back());
    extend_wire(rightl, n.children.back());
    acc = merge(acc, rightl);
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
  const NodeLists at_source = process(tree_.source());
  return finalize(at_source, tree_, opt_, stats_, arena_);
}

// The reference kernel's selection loop for one type over one view, with
// the predicates it can skip resolved at compile time: without noise
// constraints the noise test is off, and with max_slew = +inf (or NaN) the
// slew comparison is false for every entry.
template <bool kNoise, bool kSlew>
BestPredecessor scan_view(const CandList& view, double r, double d,
                          double max_slew) {
  BestPredecessor best;
  double best_q = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < view.size(); ++i) {
    const VgCand& c = view[i];
    if (kNoise && r * c.current > c.noise_slack) {
      ++best.infeasible;
      continue;
    }
    if (kSlew && elmore::kSlewFactor * (r * c.load + c.dhat) > max_slew) {
      ++best.infeasible;
      continue;
    }
    const double q = c.slack - d - r * c.load;
    if (q > best_q) {
      best_q = q;
      best.idx = i;
    }
  }
  best.q = best_q;
  return best;
}

template <bool kNoise, bool kSlew>
void scan_types(const CandList& view, std::span<const lib::BufferType> types,
                double max_slew, std::span<BestPredecessor> best) {
  for (std::size_t t = 0; t < best.size(); ++t)
    best[t] = scan_view<kNoise, kSlew>(view, types[t].resistance,
                                       types[t].intrinsic_delay, max_slew);
}

// cand_less between two fresh buffers at the same node (see
// fuse_buffer_tail). The type tie-break is total: one record per type.
bool record_less(const BufferRecord& a, const BufferRecord& b) {
  if (a.input_cap != b.input_cap) return a.input_cap < b.input_cap;
  if (a.q != b.q) return a.q > b.q;
  if (a.noise_margin != b.noise_margin) return a.noise_margin > b.noise_margin;
  return a.type.value() < b.type.value();
}

}  // namespace

void select_best_predecessors(const CandList& view,
                              std::span<const lib::BufferType> types,
                              bool noise_constraints, double max_slew,
                              std::span<BestPredecessor> best) {
  NBUF_EXPECTS(types.size() == best.size());
  const bool slew = max_slew < std::numeric_limits<double>::infinity();
  if (noise_constraints) {
    if (slew) return scan_types<true, true>(view, types, max_slew, best);
    return scan_types<true, false>(view, types, max_slew, best);
  }
  if (slew) return scan_types<false, true>(view, types, max_slew, best);
  return scan_types<false, false>(view, types, max_slew, best);
}

FuseCounts fuse_buffer_tail(CandList& list, BufferRecord* recs, std::size_t t,
                            rct::NodeId v, bool noise_constraints,
                            PlanArena& arena, CandList& scratch) {
  std::sort(recs, recs + t, record_less);  // nbuf-lint: allow(sort)
  FuseCounts c;
  const std::size_t n = list.size();
  scratch.clear();
  scratch.reserve(n + t);
  // The prune's running state over the merged sequence (sweeps::prune_sweep).
  double best = -std::numeric_limits<double>::infinity();
  std::size_t i = 0;  // next list entry to merge
  // Emits list entries [i, end) through the prune. The list is a pruned
  // staircase (no dead entry, slacks strictly ascending), so once one entry
  // of the run survives, every later one does: the records merged so far
  // can only kill a prefix of the run, and the rest is copied as a range.
  const auto take_run = [&](std::size_t end) {
    for (; i < end; ++i) {
      if (noise_constraints && !(list[i].noise_slack >= 0.0)) {
        ++c.dead;
      } else if (list[i].slack <= best) {
        ++c.inferior;
      } else {
        break;
      }
    }
    if (i == end) return;
    scratch.insert(scratch.end(), list.begin() + static_cast<std::ptrdiff_t>(i),
                   list.begin() + static_cast<std::ptrdiff_t>(end));
    best = list[end - 1].slack;
    i = end;
  };
  std::size_t dom = 0;  // first list entry with load > the record's
  for (std::size_t r = 0; r < t; ++r) {
    const BufferRecord& rec = recs[r];
    // Dominated at birth: the last entry with load <= input_cap is the
    // only possible dominator on a staircase (dominated_by_staircase).
    while (dom < n && list[dom].load <= rec.input_cap) ++dom;
    if (dom > 0 && list[dom - 1].slack >= rec.q) {
      ++c.born_dominated;
      continue;
    }
    ++c.passed;
    // List entries that precede the record in cand_less. A record that
    // passed the at-birth test never ties a list entry in (load, slack),
    // so those two fields decide.
    std::size_t end = i;
    while (end < n && !(list[end].load != rec.input_cap
                            ? rec.input_cap < list[end].load
                            : rec.q > list[end].slack))
      ++end;
    take_run(end);
    if (noise_constraints && !(rec.noise_margin >= 0.0)) {
      ++c.dead;
      continue;
    }
    if (rec.q <= best) {
      ++c.inferior;
      continue;
    }
    best = rec.q;
    // A fresh stage begins at the restoring gate: current and dhat are 0.
    scratch.push_back(VgCand{rec.input_cap, rec.q, 0.0, rec.noise_margin, 0.0,
                             arena.buffer(rec.pred,
                                          PlannedBuffer{v, 0.0, rec.type})});
  }
  if (c.passed == 0) return c;
  take_run(n);
  list.swap(scratch);
  return c;
}

VgResult run_fast_kernel(const rct::RoutingTree& tree,
                         const lib::BufferLibrary& lib, const VgOptions& opt,
                         PlanArena& arena, SubtreeMemo* memo) {
  NBUF_ASSERT(opt.prune_candidates);
  FastVgRun run(tree, lib, opt, arena, memo);
  return run.run();
}

}  // namespace nbuf::core::detail
