// The fast Van Ginneken kernel (default; see VgKernel::Fast).
//
// Three structural observations make the seed kernel's per-prune std::sort,
// per-node deep copies, and strided candidate traffic unnecessary:
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
//     deep-copies all lists. Here every (bucket, type) best predecessor is
//     selected first and only recorded — a 32-byte BufferRecord in its
//     target bucket's tail, with no plan cell and no list append — so the
//     lists themselves are the snapshot. Then one forward pass per touched
//     bucket (fuse_buffer_tail) merges the sorted tail into the staircase,
//     drops records dominated at birth, prunes, and allocates plan cells
//     for the surviving records only.
//
//  3. Structure-of-arrays lanes. Candidate lists live in SoA blocks
//     (core/soa.hpp): one contiguous aligned lane per DP field plus a
//     32-bit plan-ref lane. The wire update, the fused dead+Pareto prune
//     and the two-list merge stream over the lanes as the plain sweeps of
//     core/soa_sweeps.hpp. A full sort runs over a 32-bit index
//     permutation with ONE gather per lane at the end instead of
//     repeatedly moving 48-byte structs.
//
// Candidate blocks are recycled whole through a per-run core::SoAPool, so
// steady-state DP makes no allocator calls. Plans live in the caller's
// PlanArena.
//
// With a SubtreeMemo (core::IncrementalContext), process(v) serves valid
// nodes from the memo and stores every node it recomputes.
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
struct Lists {
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
        memo_(memo) {
    for (auto& tails : tails_) tails.resize(opt_.max_buffers + 1);
    // Resistance is the only type parameter the feasibility predicates
    // read, and both are monotone in it: a view entry infeasible for the
    // lowest-R type is infeasible for every type.
    for (lib::BufferId id : lib_.ids())
      if (lib_.at(id).resistance < lib_.at(min_r_type_).resistance)
        min_r_type_ = id;
    stats_.lib_types = lib_.size();
  }

  VgResult run();

 private:
  Lists process(rct::NodeId v);
  Lists compute(rct::NodeId v);
  void store(const Lists& lists, SubtreeMemo::Node& node) const;
  Lists restore(const SubtreeMemo::Node& node);
  void extend_wire(Lists& lists, rct::NodeId child);
  void insert_buffers(Lists& lists, rct::NodeId v);
  Lists merge(Lists l, Lists r);

  void prune(SoAList& list, bool known_sorted);
  void sort_list(SoAList& list);
  void merge_runs(SoAList& list);
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
  std::vector<std::size_t> run_bounds_;   // sorted-run starts in merge()
  // insert_buffers' fresh candidates, [phase][count] of their target.
  std::array<std::vector<std::vector<BufferRecord>>, 2> tails_;
  lib::BufferId min_r_type_{0};
  util::VgStats stats_;
};

// Pareto pruning on (load, slack) only — paper Step 7 — with dead-candidate
// removal (NS < 0) fused into the same lane scan (soa::prune_sweep).
// `known_sorted` callers maintained the sort invariant, so no sort runs.
void FastVgRun::prune(SoAList& list, bool known_sorted) {
  NBUF_TRACE_DETAIL_TAGGED("vg.prune", list.size());
  ++stats_.prune_calls;
  if (!known_sorted) {
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

void FastVgRun::extend_wire(Lists& lists, rct::NodeId child) {
  const rct::Wire& w = tree_.node(child).parent_wire;
  if (w.length <= 0.0 && w.resistance <= 0.0 && w.capacitance <= 0.0)
    return;  // binarization dummy
  NBUF_TRACE_DETAIL_TAGGED("vg.wire", lists.total_size());
  if (!sizing_) {
    // The reference kernel's per-candidate expressions as one lane sweep,
    // then the prune. The affine map preserves load order, so sortedness
    // is re-checked over the updated lanes; a violation (only possible
    // through floating-point rounding collisions) falls back to the
    // sorting prune.
    for (auto& phase_lists : lists.by_phase) {
      for (SoAList& list : phase_lists) {
        if (list.empty()) continue;
        soa::apply_wire(list, w.resistance, w.capacitance, w.coupling_current);
        prune(list, list_is_sorted(list));
      }
    }
    return;
  }
  // Simultaneous wire sizing: every candidate forks into one variant per
  // width (Lillis). The fork interleaves loads, so this is the one path
  // where the sort invariant genuinely breaks and prune must sort.
  for (auto& phase_lists : lists.by_phase) {
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
                             : arena_.wire(c.plan[ci], PlannedWire{child, wi});
        }
      }
      note_created(o);
      pool_.release(std::move(list));
      list = std::move(expanded);
      prune(list, /*known_sorted=*/false);
    }
  }
}

// Fig. 11 Step 5. Every type reads only unbuffered-at-v candidates (one
// buffer per node), and nothing is appended until every selection is made,
// so the lists themselves are the reference kernel's pre-insertion
// snapshot. Bucket-major: each (phase, count) view is scanned once per type
// while its lanes are hot.
void FastVgRun::insert_buffers(Lists& lists, rct::NodeId v) {
  NBUF_TRACE_DETAIL_TAGGED("vg.buffer", lists.total_size());
  const std::size_t bucket_count = opt_.max_buffers + 1;
  for (int in_phase = 0; in_phase < 2; ++in_phase) {
    const auto& buckets = lists.by_phase[in_phase];
    // A candidate of count k buffered here lands in bucket k + 1, so the
    // last bucket feeds nothing.
    for (std::size_t k = 0; k + 1 < bucket_count; ++k) {
      const CandSpan view = buckets[k].span();
      if (view.n == 0) continue;
      ++stats_.bp_prune_calls;
      for (lib::BufferId id : lib_.ids()) {
        const lib::BufferType& b = lib_.at(id);
        const BestPredecessor best = select_best_predecessor(
            view, b, opt_.noise_constraints, opt_.max_slew);
        if (id == min_r_type_) stats_.bp_candidates_killed += best.infeasible;
        if (best.idx == BestPredecessor::kNone) continue;
        note_created(1);
        const int out_phase = b.inverting ? 1 - in_phase : in_phase;
        tails_[out_phase][k + 1].push_back(BufferRecord{
            b.input_cap, best.q, b.noise_margin, view.plan[best.idx], id});
      }
    }
  }
  for (int phase = 0; phase < 2; ++phase) {
    for (std::size_t k = 0; k < bucket_count; ++k) {
      std::vector<BufferRecord>& tail = tails_[phase][k];
      if (tail.empty()) continue;
      SoAList& list = lists.by_phase[phase][k];
      const FuseCounts c =
          fuse_buffer_tail(list, tail.data(), tail.size(), v,
                           opt_.noise_constraints, arena_, scratch_);
      tail.clear();
      stats_.pruned_inferior += c.born_dominated;
      if (c.passed == 0) continue;  // untouched: still Pareto-sorted
      // The pass ends in the prune of a bucket that gained candidates.
      ++stats_.prune_calls;
      stats_.pruned_infeasible += c.dead;
      stats_.pruned_inferior += c.inferior;
      if (c.dead + c.inferior == 0) ++stats_.soa_prunes_no_move;
      stats_.peak_list_size = std::max(stats_.peak_list_size, list.size());
      if (verify_lists_enabled(opt_))
        verify_cand_list(list.span(), opt_, arena_);
    }
  }
}

void FastVgRun::release_lists(Lists& lists) {
  for (auto& phase_lists : lists.by_phase)
    for (SoAList& list : phase_lists) pool_.release(std::move(list));
}

Lists FastVgRun::merge(Lists l, Lists r) {
  NBUF_TRACE_DETAIL_TAGGED("vg.merge", l.total_size() + r.total_size());
  const std::size_t kmax = opt_.max_buffers;
  Lists out;
  for (auto& pl : out.by_phase) pl.resize(kmax + 1);
  // Output-bucket-major so all (kl, kr) contributions to one bucket are
  // consecutive: each contribution is one sorted run (the Van Ginneken
  // linear merge emits loads in ascending order), and the runs fold back
  // into one sorted list without a sort.
  for (int phase = 0; phase < 2; ++phase) {
    for (std::size_t ks = 0; ks <= kmax; ++ks) {
      SoAList& dst = out.by_phase[phase][ks];
      run_bounds_.clear();
      for (std::size_t kl = 0; kl <= ks; ++kl) {
        const SoAList& a = l.by_phase[phase][kl];
        if (a.empty()) continue;
        const SoAList& b = r.by_phase[phase][ks - kl];
        if (b.empty()) continue;
        if (dst.capacity() == 0) dst = pool_.acquire();
        run_bounds_.push_back(dst.size());
        const std::size_t m = soa::merge_sweep(a.span(), b.span(), arena_, dst);
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

Lists FastVgRun::process(rct::NodeId v) {
  if (memo_ == nullptr) return compute(v);
  SubtreeMemo::Node& cached = memo_->nodes[v.value()];
  if (cached.valid) {
    ++memo_->reused;
    return restore(cached);
  }
  Lists lists = compute(v);
  store(lists, cached);
  ++memo_->recomputed;
  return lists;
}

void FastVgRun::store(const Lists& lists, SubtreeMemo::Node& node) const {
  const std::size_t total = lists.total_size();
  node.offsets.clear();
  node.values.clear();
  node.values.reserve(5 * total);
  node.plans.clear();
  node.plans.reserve(total);
  for (const auto& phase_lists : lists.by_phase) {
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

Lists FastVgRun::restore(const SubtreeMemo::Node& node) {
  Lists lists;
  std::size_t b = 0;
  for (auto& phase_lists : lists.by_phase) {
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

Lists FastVgRun::compute(rct::NodeId v) {
  const rct::Node& n = tree_.node(v);

  if (n.kind == rct::NodeKind::Sink) {
    Lists lists;
    for (auto& pl : lists.by_phase) pl.resize(opt_.max_buffers + 1);
    const rct::SinkInfo& si = tree_.sink(n.sink);
    SoAList& seedlist =
        lists.by_phase[si.require_inverted ? 1 : 0][0];
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
  stats_.pool_reuses = pool_.reuses();
  // Materialize the source lists as AoS NodeLists for the shared driver
  // fold (finalize is common to both kernels) — a one-time conversion
  // linear in the surviving source candidates.
  NodeLists node;
  for (int phase = 0; phase < 2; ++phase) {
    node.by_phase[phase].resize(opt_.max_buffers + 1);
    for (std::size_t k = 0; k <= opt_.max_buffers; ++k) {
      const CandSpan s = at_source.by_phase[phase][k].span();
      CandList& out = node.by_phase[phase][k];
      out.reserve(s.n);
      for (std::size_t i = 0; i < s.n; ++i)
        out.push_back(VgCand{s.load[i], s.slack[i], s.current[i],
                             s.noise_slack[i], s.dhat[i], s.plan[i]});
    }
  }
  return finalize(node, tree_, opt_, stats_, arena_);
}

// The reference kernel's selection loop for one type over one view, with
// the predicates it can skip resolved at compile time: without noise
// constraints the noise test is off, and with max_slew = +inf (or NaN) the
// slew comparison is false for every entry.
template <bool kNoise, bool kSlew>
BestPredecessor scan_view(const CandSpan& view, const lib::BufferType& b,
                          double max_slew) {
  BestPredecessor best;
  double best_q = -std::numeric_limits<double>::infinity();
  const double r = b.resistance;
  const double d = b.intrinsic_delay;
  for (std::size_t i = 0; i < view.n; ++i) {
    if (kNoise && r * view.current[i] > view.noise_slack[i]) {
      ++best.infeasible;
      continue;
    }
    if (kSlew &&
        elmore::kSlewFactor * (r * view.load[i] + view.dhat[i]) > max_slew) {
      ++best.infeasible;
      continue;
    }
    const double q = view.slack[i] - d - r * view.load[i];
    if (q > best_q) {
      best_q = q;
      best.idx = i;
    }
  }
  best.q = best_q;
  return best;
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

BestPredecessor select_best_predecessor(const CandSpan& view,
                                        const lib::BufferType& b,
                                        bool noise_constraints,
                                        double max_slew) {
  const bool slew = max_slew < std::numeric_limits<double>::infinity();
  if (noise_constraints)
    return slew ? scan_view<true, true>(view, b, max_slew)
                : scan_view<true, false>(view, b, max_slew);
  return slew ? scan_view<false, true>(view, b, max_slew)
              : scan_view<false, false>(view, b, max_slew);
}

FuseCounts fuse_buffer_tail(SoAList& list, BufferRecord* recs, std::size_t t,
                            rct::NodeId v, bool noise_constraints,
                            PlanArena& arena, SoAList& scratch) {
  std::sort(recs, recs + t, record_less);  // nbuf-lint: allow(sort)
  FuseCounts c;
  const CandSpan in = list.span();
  const std::size_t n = in.n;
  scratch.clear();
  scratch.reserve(n + t);
  scratch.set_size(n + t);
  double* load = scratch.load();
  double* slack = scratch.slack();
  double* current = scratch.current();
  double* noise_slack = scratch.noise_slack();
  double* dhat = scratch.dhat();
  PlanRef* plan = scratch.plan();
  // The prune's running state over the merged sequence (soa::prune_sweep).
  double best = -std::numeric_limits<double>::infinity();
  std::size_t i = 0;  // next list entry to merge
  std::size_t o = 0;  // next output slot
  // Emits list entries [i, end) through the prune. The list is a pruned
  // staircase (no dead entry, slacks strictly ascending), so once one entry
  // of the run survives, every later one does: the records merged so far
  // can only kill a prefix of the run, and the rest moves lane by lane.
  const auto take_run = [&](std::size_t end) {
    for (; i < end; ++i) {
      if (noise_constraints && !(in.noise_slack[i] >= 0.0)) {
        ++c.dead;
      } else if (in.slack[i] <= best) {
        ++c.inferior;
      } else {
        break;
      }
    }
    if (i == end) return;
    const std::size_t m = end - i;
    std::copy_n(in.load + i, m, load + o);
    std::copy_n(in.slack + i, m, slack + o);
    std::copy_n(in.current + i, m, current + o);
    std::copy_n(in.noise_slack + i, m, noise_slack + o);
    std::copy_n(in.dhat + i, m, dhat + o);
    std::copy_n(in.plan + i, m, plan + o);
    o += m;
    best = in.slack[end - 1];
    i = end;
  };
  std::size_t dom = 0;  // first list entry with load > the record's
  for (std::size_t r = 0; r < t; ++r) {
    const BufferRecord& rec = recs[r];
    // Dominated at birth: the last entry with load <= input_cap is the
    // only possible dominator on a staircase (dominated_by_staircase).
    while (dom < n && in.load[dom] <= rec.input_cap) ++dom;
    if (dom > 0 && in.slack[dom - 1] >= rec.q) {
      ++c.born_dominated;
      continue;
    }
    ++c.passed;
    // List entries that precede the record in cand_less. A record that
    // passed the at-birth test never ties a list entry in (load, slack),
    // so those two fields decide.
    std::size_t end = i;
    while (end < n && !(in.load[end] != rec.input_cap
                            ? rec.input_cap < in.load[end]
                            : rec.q > in.slack[end]))
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
    load[o] = rec.input_cap;
    slack[o] = rec.q;
    current[o] = 0.0;
    noise_slack[o] = rec.noise_margin;
    dhat[o] = 0.0;  // restoring gate: a fresh stage begins
    plan[o] = arena.buffer(rec.pred, PlannedBuffer{v, 0.0, rec.type});
    ++o;
  }
  if (c.passed == 0) return c;
  take_run(n);
  scratch.set_size(o);
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
