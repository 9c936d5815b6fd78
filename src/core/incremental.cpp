#include "core/incremental.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace nbuf::core {

namespace {

// The sorts below canonicalize small result sets for order-independent
// equality checks (validation, not candidate-DP hot paths).

bool same_plan(const std::vector<PlannedBuffer>& a,
               const std::vector<PlannedBuffer>& b) {
  if (a.size() != b.size()) return false;
  auto key = [](const PlannedBuffer& p) {
    return std::tuple(p.node.value(), p.dist_above, p.type.value());
  };
  std::vector<std::tuple<std::uint32_t, double, std::uint32_t>> ka, kb;
  ka.reserve(a.size());
  kb.reserve(b.size());
  for (const PlannedBuffer& p : a) ka.push_back(key(p));
  for (const PlannedBuffer& p : b) kb.push_back(key(p));
  std::sort(ka.begin(), ka.end());  // nbuf-lint: allow(sort)
  std::sort(kb.begin(), kb.end());  // nbuf-lint: allow(sort)
  return ka == kb;
}

bool same_wires(const std::vector<PlannedWire>& a,
                const std::vector<PlannedWire>& b) {
  if (a.size() != b.size()) return false;
  auto key = [](const PlannedWire& w) {
    return std::pair(w.node.value(), w.width);
  };
  std::vector<std::pair<std::uint32_t, std::size_t>> ka, kb;
  ka.reserve(a.size());
  kb.reserve(b.size());
  for (const PlannedWire& w : a) ka.push_back(key(w));
  for (const PlannedWire& w : b) kb.push_back(key(w));
  std::sort(ka.begin(), ka.end());  // nbuf-lint: allow(sort)
  std::sort(kb.begin(), kb.end());  // nbuf-lint: allow(sort)
  return ka == kb;
}

}  // namespace

rct::NodeId apply_perturbation(rct::RoutingTree& tree,
                               const Perturbation& p) {
  switch (p.kind) {
    case Perturbation::Kind::WireScale: {
      rct::Wire w = tree.node(p.node).parent_wire;
      w.resistance *= p.res_factor;
      w.capacitance *= p.cap_factor;
      w.coupling_current *= p.cur_factor;
      tree.set_parent_wire(p.node, w);
      return rct::NodeId{};
    }
    case Perturbation::Kind::SinkSet: {
      rct::SinkInfo info = p.sink_info;
      // The structural fields stay the sink's own: only electrical /
      // constraint values are perturbable through this vocabulary.
      info.node = tree.sink(p.sink).node;
      info.name = tree.sink(p.sink).name;
      tree.set_sink_info(p.sink, info);
      return rct::NodeId{};
    }
    case Perturbation::Kind::WireSplit:
      return tree.split_wire(p.node, p.dist_above);
    case Perturbation::Kind::TightenMargins: {
      for (std::size_t i = 0; i < tree.sink_count(); ++i) {
        const auto sid = rct::SinkId{static_cast<std::uint32_t>(i)};
        rct::SinkInfo info = tree.sink(sid);
        info.noise_margin -= p.delta;
        tree.set_sink_info(sid, info);
      }
      return rct::NodeId{};
    }
    case Perturbation::Kind::ScaleCoupling: {
      for (rct::NodeId v : tree.preorder()) {
        if (v == tree.source()) continue;
        rct::Wire w = tree.node(v).parent_wire;
        w.coupling_current *= p.factor;
        tree.set_parent_wire(v, w);
      }
      return rct::NodeId{};
    }
  }
  NBUF_EXPECTS_MSG(false, "unknown perturbation kind");
  return rct::NodeId{};
}

Perturbation random_perturbation(util::Rng& rng,
                                 const rct::RoutingTree& tree) {
  Perturbation p;
  const auto order = tree.preorder();
  const auto pick_non_source = [&] {
    return order[static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<int>(order.size()) - 1))];
  };
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      p.kind = Perturbation::Kind::WireScale;
      p.node = pick_non_source();
      p.res_factor = rng.uniform(0.4, 2.5);
      p.cap_factor = rng.uniform(0.4, 2.5);
      p.cur_factor = rng.uniform(0.4, 2.5);
      break;
    }
    case 1: {
      p.kind = Perturbation::Kind::SinkSet;
      p.sink = rct::SinkId{static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<int>(tree.sink_count()) - 1))};
      p.sink_info = tree.sink(p.sink);
      p.sink_info.cap *= rng.uniform(0.5, 2.0);
      p.sink_info.noise_margin = rng.uniform(0.3, 1.2);
      break;
    }
    default: {
      const rct::NodeId v = pick_non_source();
      const double frac = rng.uniform(0.25, 0.75);
      const double len = tree.node(v).parent_wire.length;
      if (len > 1.0) {
        p.kind = Perturbation::Kind::WireSplit;
        p.node = v;
        p.dist_above = frac * len;
      } else {
        // Too short to split: degrade to a rescale so every draw edits.
        p.kind = Perturbation::Kind::WireScale;
        p.node = v;
        p.res_factor = p.cap_factor = p.cur_factor = 1.0 + frac;
      }
      break;
    }
  }
  return p;
}

IncrementalContext::IncrementalContext(rct::RoutingTree tree,
                                       const lib::BufferLibrary& lib,
                                       VgOptions opt)
    : tree_(std::move(tree)), lib_(lib), opt_(std::move(opt)) {
  detail::expect_valid_inputs(tree_, lib_, opt_);
  NBUF_EXPECTS_MSG(opt_.prune_candidates,
                   "the fast kernel assumes dominance pruning");
}

void IncrementalContext::dirty_up(rct::NodeId v) {
  for (rct::NodeId c = v; c.valid(); c = tree_.node(c).parent)
    memo_.invalidate(c);
}

void IncrementalContext::scale_wire(rct::NodeId v, double res_factor,
                                    double cap_factor, double cur_factor) {
  NBUF_EXPECTS_MSG(v != tree_.source(), "the source has no parent wire");
  Perturbation p;
  p.kind = Perturbation::Kind::WireScale;
  p.node = v;
  p.res_factor = res_factor;
  p.cap_factor = cap_factor;
  p.cur_factor = cur_factor;
  apply_perturbation(tree_, p);
  // The wire above v enters the DP while v's PARENT processes; v's own
  // subtree lists are untouched.
  dirty_up(tree_.node(v).parent);
}

void IncrementalContext::set_sink(rct::SinkId s, rct::SinkInfo info) {
  Perturbation p;
  p.kind = Perturbation::Kind::SinkSet;
  p.sink = s;
  p.sink_info = std::move(info);
  apply_perturbation(tree_, p);
  dirty_up(tree_.sink(s).node);
}

rct::NodeId IncrementalContext::split_wire(rct::NodeId v, double dist_above) {
  NBUF_EXPECTS_MSG(v != tree_.source(), "the source has no parent wire");
  const rct::NodeId n = tree_.split_wire(v, dist_above);
  // v's subtree is intact (its shortened parent wire belongs to n's DP
  // step); everything from the new node upward changed shape.
  dirty_up(n);
  return n;
}

void IncrementalContext::tighten_margins(double delta) {
  Perturbation p;
  p.kind = Perturbation::Kind::TightenMargins;
  p.delta = delta;
  apply_perturbation(tree_, p);
  memo_.invalidate_all();
}

void IncrementalContext::scale_coupling(double factor) {
  Perturbation p;
  p.kind = Perturbation::Kind::ScaleCoupling;
  p.factor = factor;
  apply_perturbation(tree_, p);
  memo_.invalidate_all();
}

rct::NodeId IncrementalContext::apply(const Perturbation& p) {
  switch (p.kind) {
    case Perturbation::Kind::WireScale:
      scale_wire(p.node, p.res_factor, p.cap_factor, p.cur_factor);
      return rct::NodeId{};
    case Perturbation::Kind::SinkSet:
      set_sink(p.sink, p.sink_info);
      return rct::NodeId{};
    case Perturbation::Kind::WireSplit:
      return split_wire(p.node, p.dist_above);
    case Perturbation::Kind::TightenMargins:
      tighten_margins(p.delta);
      return rct::NodeId{};
    case Perturbation::Kind::ScaleCoupling:
      scale_coupling(p.factor);
      return rct::NodeId{};
  }
  NBUF_EXPECTS_MSG(false, "unknown perturbation kind");
  return rct::NodeId{};
}

void IncrementalContext::invalidate_all() { memo_.invalidate_all(); }

const VgResult& IncrementalContext::optimize() {
  NBUF_TRACE_SPAN_TAGGED("incremental.optimize", tree_.node_count());
  result_ = detail::run_fast_kernel(tree_, lib_, opt_, arena_, &memo_);
  have_result_ = true;
  ++stats_.runs;
  stats_.last_reused = memo_.reused;
  stats_.last_recomputed = memo_.recomputed;
  stats_.plan_cells = arena_.cell_count();
  return result_;
}

bool same_solution(const VgResult& a, const VgResult& b) {
  if (a.feasible != b.feasible || a.timing_met != b.timing_met ||
      a.buffer_count != b.buffer_count || a.slack != b.slack)
    return false;
  // entries() is sorted by node id, so direct comparison is order-safe.
  if (a.buffers.entries() != b.buffers.entries()) return false;
  if (!same_wires(a.wire_widths, b.wire_widths)) return false;
  if (a.per_count.size() != b.per_count.size()) return false;
  for (std::size_t i = 0; i < a.per_count.size(); ++i) {
    const CountBest& x = a.per_count[i];
    const CountBest& y = b.per_count[i];
    if (x.count != y.count || x.slack != y.slack ||
        x.noise_slack != y.noise_slack || x.noise_ok != y.noise_ok)
      return false;
    if (!same_plan(x.plan, y.plan) || !same_wires(x.wires, y.wires))
      return false;
  }
  return true;
}

}  // namespace nbuf::core
