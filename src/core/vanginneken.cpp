#include "core/vanginneken.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "core/vg_kernel.hpp"
#include "elmore/slew.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace nbuf::core {

namespace detail {

namespace {

// The reference (seed) kernel, a one-shot oracle: re-sorts every candidate
// list on every prune and snapshots the full NodeLists at each
// buffer-insertion node. core::optimize runs it for VgKernel::Reference and
// the unpruned ablation; it is the fast kernel's bit-identity oracle
// (tests/test_vg_kernel) and the A/B baseline of bench/figI_kernel_speedup.
class ReferenceDp {
 public:
  ReferenceDp(const rct::RoutingTree& tree, const lib::BufferLibrary& lib,
              const VgOptions& opt, PlanArena& arena)
      : tree_(tree), lib_(lib), opt_(opt), arena_(arena) {
    stats_.lib_types = lib_.size();
  }

  VgResult run();

 private:
  NodeLists process(rct::NodeId v);
  void prune(CandList& list);
  void extend_wire(NodeLists& lists, rct::NodeId child);
  void insert_buffers(NodeLists& lists, rct::NodeId v);
  NodeLists merge(const NodeLists& l, const NodeLists& r);
  void note_created(std::size_t n) { stats_.candidates_generated += n; }

  const rct::RoutingTree& tree_;
  const lib::BufferLibrary& lib_;
  const VgOptions& opt_;
  PlanArena& arena_;
  util::VgStats stats_;
};

// Pareto pruning on (load, slack) only — paper Step 7; with noise enabled,
// dead candidates (NS < 0: no future gate can drive them) are removed first.
void ReferenceDp::prune(CandList& list) {
  NBUF_TRACE_DETAIL_TAGGED("vg.prune", list.size());
  ++stats_.prune_calls;
  ++stats_.prune_sorts;  // this kernel always sorts
  if (opt_.noise_constraints) {
    const std::size_t before = list.size();
    std::erase_if(list, [](const VgCand& c) { return c.noise_slack < 0.0; });
    stats_.pruned_infeasible += before - list.size();
  }
  std::sort(list.begin(), list.end(),
            [this](const VgCand& a, const VgCand& b) {
              return detail::cand_less(a, b, arena_);
            });
  if (opt_.prune_candidates) {
    CandList kept;
    double best_slack = -std::numeric_limits<double>::infinity();
    for (const VgCand& c : list) {
      if (c.slack <= best_slack) continue;  // inferior: >= load, <= slack
      kept.push_back(c);
      best_slack = c.slack;
    }
    stats_.pruned_inferior += list.size() - kept.size();
    list = std::move(kept);
  }
  stats_.peak_list_size = std::max(stats_.peak_list_size, list.size());
  if (detail::verify_lists_enabled(opt_))
    detail::verify_cand_list(list, opt_, arena_);
}

void ReferenceDp::extend_wire(NodeLists& lists, rct::NodeId child) {
  NBUF_TRACE_DETAIL_TAGGED("vg.wire", lists.total_size());
  const rct::Wire& w = tree_.node(child).parent_wire;
  if (w.length <= 0.0 && w.resistance <= 0.0 && w.capacitance <= 0.0)
    return;  // binarization dummy
  const bool sizing = !opt_.wire_widths.empty();
  for (auto& phase_lists : lists.by_phase) {
    for (CandList& list : phase_lists) {
      if (!sizing) {
        for (VgCand& c : list) {
          const double wire_delay =
              w.resistance * (w.capacitance / 2.0 + c.load);
          c.slack -= wire_delay;
          c.dhat += wire_delay;
          c.load += w.capacitance;
          c.noise_slack -=
              w.resistance * (w.coupling_current / 2.0 + c.current);
          c.current += w.coupling_current;
        }
      } else {
        // Simultaneous wire sizing: every candidate forks into one variant
        // per width (Lillis). Width 0 is the base wire and needs no plan
        // record.
        CandList expanded;
        expanded.reserve(list.size() * opt_.wire_widths.size());
        for (const VgCand& c : list) {
          for (std::size_t wi = 0; wi < opt_.wire_widths.size(); ++wi) {
            const lib::WireWidth& ww = opt_.wire_widths.at(wi);
            const double res = w.resistance * ww.res_scale;
            const double cap = w.capacitance * ww.cap_scale;
            const double cur = w.coupling_current * ww.coupling_scale;
            VgCand v = c;
            const double wire_delay = res * (cap / 2.0 + v.load);
            v.slack -= wire_delay;
            v.dhat += wire_delay;
            v.load += cap;
            v.noise_slack -= res * (cur / 2.0 + v.current);
            v.current += cur;
            if (wi != 0)
              v.plan = arena_.wire(v.plan, PlannedWire{child, wi});
            expanded.push_back(v);
            note_created(1);
          }
        }
        list = std::move(expanded);
      }
      prune(list);
    }
  }
}

void ReferenceDp::insert_buffers(NodeLists& lists, rct::NodeId v) {
  NBUF_TRACE_DETAIL_TAGGED("vg.buffer", lists.total_size());
  // Snapshot the pre-insertion lists: every type considers only unbuffered-
  // at-v candidates, enforcing one buffer per node (Step 5). Reading
  // `lists` directly would let a later type stack on top of an earlier
  // type's fresh insertion at this same node.
  const NodeLists before = lists;
  for (lib::BufferId bid : lib_.ids()) {
    const lib::BufferType& b = lib_.at(bid);
    // New candidates bucketed by (result phase, count + 1).
    for (int in_phase = 0; in_phase < 2; ++in_phase) {
      const int out_phase = b.inverting ? 1 - in_phase : in_phase;
      const auto& buckets = before.by_phase[in_phase];
      std::vector<VgCand> additions(buckets.size());
      std::vector<bool> has(buckets.size(), false);
      for (std::size_t k = 0; k + 1 < buckets.size(); ++k) {
        // Best resulting slack over the count-k list (Fig. 11 Step 5).
        const VgCand* best = nullptr;
        double best_q = -std::numeric_limits<double>::infinity();
        for (const VgCand& c : buckets[k]) {
          if (opt_.noise_constraints &&
              b.resistance * c.current > c.noise_slack)
            continue;  // would violate noise: never create this candidate
          if (elmore::kSlewFactor * (b.resistance * c.load + c.dhat) >
              opt_.max_slew)
            continue;  // the buffer's stage would see too slow an edge
          const double q = c.slack - b.intrinsic_delay -
                           b.resistance * c.load;
          if (q > best_q) {
            best_q = q;
            best = &c;
          }
        }
        if (best == nullptr) continue;
        note_created(1);
        // Dominated at birth: the pre-insertion staircase of the target
        // bucket already holds a candidate at most as loaded and at least
        // as slack-rich, so the post-insertion prune below would delete
        // this one unconditionally. Book the generate+prune pair without
        // materializing a plan node.
        const CandList& target = before.by_phase[out_phase][k + 1];
        if (opt_.prune_candidates &&
            detail::dominated_by_staircase(target.data(), target.size(),
                                           b.input_cap, best_q)) {
          ++stats_.pruned_inferior;
          continue;
        }
        VgCand nc;
        nc.load = b.input_cap;
        nc.slack = best_q;
        nc.current = 0.0;
        nc.noise_slack = b.noise_margin;
        nc.dhat = 0.0;  // restoring gate: a fresh stage begins
        nc.plan = arena_.buffer(best->plan, PlannedBuffer{v, 0.0, bid});
        additions[k + 1] = nc;
        has[k + 1] = true;
      }
      for (std::size_t k = 0; k < additions.size(); ++k) {
        if (!has[k]) continue;
        lists.by_phase[out_phase][k].push_back(additions[k]);
      }
    }
  }
  for (auto& phase_lists : lists.by_phase)
    for (CandList& list : phase_lists) prune(list);
}

NodeLists ReferenceDp::merge(const NodeLists& l, const NodeLists& r) {
  NBUF_TRACE_DETAIL_TAGGED("vg.merge", l.total_size() + r.total_size());
  const std::size_t kmax = opt_.max_buffers;
  NodeLists out;
  for (auto& pl : out.by_phase) pl.resize(kmax + 1);
  for (int phase = 0; phase < 2; ++phase) {
    for (std::size_t kl = 0; kl <= kmax; ++kl) {
      const CandList& a = l.by_phase[phase][kl];
      if (a.empty()) continue;
      for (std::size_t kr = 0; kl + kr <= kmax; ++kr) {
        const CandList& b = r.by_phase[phase][kr];
        if (b.empty()) continue;
        CandList& dst = out.by_phase[phase][kl + kr];
        // Van Ginneken linear merge: lists are sorted by load and slack
        // ascending; the side whose slack binds advances.
        std::size_t i = 0, j = 0;
        while (i < a.size() && j < b.size()) {
          VgCand m;
          m.load = a[i].load + b[j].load;
          m.slack = std::min(a[i].slack, b[j].slack);
          m.current = a[i].current + b[j].current;
          m.noise_slack = std::min(a[i].noise_slack, b[j].noise_slack);
          m.dhat = std::max(a[i].dhat, b[j].dhat);
          m.plan = arena_.merge(a[i].plan, b[j].plan);
          dst.push_back(m);
          note_created(1);
          ++stats_.merged;
          if (a[i].slack < b[j].slack) {
            ++i;
          } else if (b[j].slack < a[i].slack) {
            ++j;
          } else {
            ++i;
            ++j;
          }
        }
      }
    }
  }
  for (auto& phase_lists : out.by_phase)
    for (CandList& list : phase_lists) prune(list);
  return out;
}

NodeLists ReferenceDp::process(rct::NodeId v) {
  const rct::Node& n = tree_.node(v);
  NodeLists lists;
  for (auto& pl : lists.by_phase) pl.resize(opt_.max_buffers + 1);

  if (n.kind == rct::NodeKind::Sink) {
    const rct::SinkInfo& si = tree_.sink(n.sink);
    VgCand c;
    c.load = si.cap;
    c.slack = si.required_arrival;
    c.current = 0.0;
    c.noise_slack = si.noise_margin;
    lists.by_phase[si.require_inverted ? 1 : 0][0].push_back(c);
    note_created(1);
  } else {
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
    lists = std::move(acc);
    if (n.kind == rct::NodeKind::Internal && n.buffer_allowed)
      insert_buffers(lists, v);
  }
  return lists;
}

VgResult ReferenceDp::run() {
  const NodeLists at_source = process(tree_.source());
  return detail::finalize(at_source, tree_, opt_, stats_, arena_);
}

}  // namespace

void verify_cand_list(const CandList& list, const VgOptions& opt,
                      const PlanArena& arena) {
  NBUF_ASSERT_MSG(std::is_sorted(list.begin(), list.end(),
                                 [&arena](const VgCand& a, const VgCand& b) {
                                   return cand_less(a, b, arena);
                                 }),
                  "candidate list lost the (load asc, slack desc) order");
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (opt.noise_constraints)
      NBUF_ASSERT_CTX(
          list[i].noise_slack >= 0.0,
          util::ctx("i", i, "noise_slack", list[i].noise_slack));
    if (opt.prune_candidates && i > 0) {
      NBUF_ASSERT_CTX(list[i - 1].load < list[i].load,
                      util::ctx("i", i, "load[i-1]", list[i - 1].load,
                                "load[i]", list[i].load));
      NBUF_ASSERT_CTX(list[i - 1].slack < list[i].slack,
                      util::ctx("i", i, "slack[i-1]", list[i - 1].slack,
                                "slack[i]", list[i].slack));
    }
  }
}

void expect_valid_inputs(const rct::RoutingTree& tree,
                         const lib::BufferLibrary& lib,
                         const VgOptions& options) {
  NBUF_EXPECTS_MSG(tree.is_binary(), "call tree.binarize() first");
  NBUF_EXPECTS_MSG(!lib.empty(), "empty buffer library");
  // max_buffers + 1 buckets per phase: SIZE_MAX would wrap to none.
  NBUF_EXPECTS(options.max_buffers >= 1 &&
               options.max_buffers < std::numeric_limits<std::size_t>::max());
}

VgOptions clamped_to_sites(const rct::RoutingTree& tree, VgOptions options) {
  std::size_t sites = 0;
  for (std::size_t i = 0; i < tree.node_count(); ++i) {
    const rct::Node& n =
        tree.node(rct::NodeId{static_cast<rct::NodeId::underlying_type>(i)});
    if (n.kind == rct::NodeKind::Internal && n.buffer_allowed) ++sites;
  }
  options.max_buffers =
      std::min(options.max_buffers, std::max(sites, std::size_t{1}));
  return options;
}

VgResult finalize(const NodeLists& at_source, const rct::RoutingTree& tree,
                  const VgOptions& opt, const util::VgStats& stats,
                  const PlanArena& arena) {
  const rct::Driver& drv = tree.driver();
  VgResult result;

  // Fold in the driver (Fig. 10 Steps 2-4); only source-polarity candidates
  // are electrically valid solutions.
  for (std::size_t k = 0; k <= opt.max_buffers; ++k) {
    const CandList& list = at_source.by_phase[0][k];
    if (list.empty()) continue;
    CountBest best;
    best.count = k;
    const VgCand* chosen = nullptr;
    for (const VgCand& c : list) {
      const double q =
          c.slack - drv.intrinsic_delay - drv.resistance * c.load;
      const double driver_noise = drv.resistance * c.current;
      const bool noise_ok =
          !opt.noise_constraints || driver_noise <= c.noise_slack;
      if (opt.noise_constraints && !noise_ok) continue;
      if (elmore::kSlewFactor * (drv.resistance * c.load + c.dhat) >
          opt.max_slew)
        continue;  // driver's stage violates the slew limit
      if (chosen == nullptr || q > best.slack) {
        best.slack = q;
        best.noise_slack = c.noise_slack - driver_noise;
        best.noise_ok = noise_ok;
        chosen = &c;
      }
    }
    if (chosen == nullptr) continue;
    // Collecting walks the plan DAG, so only the winner's is collected.
    best.plan = collect(arena, chosen->plan);
    best.wires = collect_wires(arena, chosen->plan);
    result.per_count.push_back(std::move(best));
  }

  result.stats = stats;

  if (result.per_count.empty()) {
    // No candidate satisfies the noise constraints at any count (possible
    // when buffer sites are too sparse): report infeasible with the
    // zero-buffer solution.
    result.feasible = false;
    result.timing_met = false;
    return result;
  }

  const CountBest* chosen = nullptr;
  if (opt.objective == VgObjective::MinBuffersMeetingConstraints) {
    for (const CountBest& cb : result.per_count) {
      if (cb.slack >= 0.0) {
        chosen = &cb;
        break;  // per_count ascends by count
      }
    }
  }
  if (chosen == nullptr) {
    // MaxSlack, or no count meets timing: take the best slack overall.
    for (const CountBest& cb : result.per_count)
      if (chosen == nullptr || cb.slack > chosen->slack) chosen = &cb;
  }

  result.feasible = true;  // noise-clean by construction in noise mode
  result.timing_met = chosen->slack >= 0.0;
  result.slack = chosen->slack;
  result.buffers = assignment_for(chosen->plan);
  result.buffer_count = result.buffers.size();
  result.wire_widths = chosen->wires;
  return result;
}

}  // namespace detail

VgResult optimize(const rct::RoutingTree& tree, const lib::BufferLibrary& lib,
                  const VgOptions& options) {
  NBUF_TRACE_SPAN_TAGGED("vg.optimize", tree.node_count());
  detail::expect_valid_inputs(tree, lib, options);
  const VgOptions opt = detail::clamped_to_sites(tree, options);
  PlanArena arena;
  if (opt.kernel == VgKernel::Reference || !opt.prune_candidates)
    return detail::ReferenceDp(tree, lib, opt, arena).run();
  return detail::run_fast_kernel(tree, lib, opt, arena);
}

rct::BufferAssignment assignment_for(const std::vector<PlannedBuffer>& plan) {
  rct::BufferAssignment out;
  for (const PlannedBuffer& p : plan) {
    NBUF_ASSERT_MSG(p.dist_above == 0.0,
                    "Van Ginneken plans place at existing nodes only");
    out.place(p.node, p.type);
  }
  return out;
}

void apply_wire_widths(rct::RoutingTree& tree,
                       const std::vector<PlannedWire>& choices,
                       const lib::WireWidthLibrary& widths) {
  for (const PlannedWire& c : choices) {
    const lib::WireWidth& w = widths.at(c.width);
    rct::Wire wire = tree.node(c.node).parent_wire;
    wire.resistance *= w.res_scale;
    wire.capacitance *= w.cap_scale;
    wire.coupling_current *= w.coupling_scale;
    tree.set_parent_wire(c.node, wire);
  }
}

}  // namespace nbuf::core
