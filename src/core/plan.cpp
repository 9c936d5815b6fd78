#include "core/plan.hpp"

#include <algorithm>
#include <map>

#include "util/check.hpp"

namespace nbuf::core {

// A PlanRef is 32-bit; one arena materializing 2^32 cells would long since
// have exhausted memory, but the contract makes the limit explicit.
PlanRef PlanArena::push(const PlanCell& c) {
  NBUF_ASSERT(cells_.size() < UINT32_MAX);
  cells_.push_back(c);
  return static_cast<PlanRef>(cells_.size());
}

PlanRef PlanArena::buffer(PlanRef prev, PlannedBuffer placement) {
  NBUF_EXPECTS(placement.node.valid());
  NBUF_EXPECTS(placement.type.valid());
  NBUF_EXPECTS(placement.dist_above >= 0.0);
  return push(PlanCell{prev, placement.node.value(), placement.type.value(),
                       PlanCell::Kind::Buffer, placement.dist_above});
}

PlanRef PlanArena::wire(PlanRef prev, PlannedWire choice) {
  NBUF_EXPECTS(choice.node.valid());
  NBUF_EXPECTS(choice.width <= UINT32_MAX);
  return push(PlanCell{prev, choice.node.value(),
                       static_cast<std::uint32_t>(choice.width),
                       PlanCell::Kind::Wire, 0.0});
}

PlanRef PlanArena::merge(PlanRef left, PlanRef right) {
  if (left == kNullPlan) return right;
  if (right == kNullPlan) return left;
  return push(PlanCell{left, right, 0, PlanCell::Kind::Merge, 0.0});
}

namespace {

// Depth-first walk of every cell reachable from `plan`: predecessor pushed
// before the right branch, so the right branch is visited first.
template <class Visit>
void walk(const PlanArena& arena, PlanRef plan, Visit visit) {
  std::vector<PlanRef> stack;
  if (plan != kNullPlan) stack.push_back(plan);
  while (!stack.empty()) {
    const PlanCell& c = arena.at(stack.back());
    stack.pop_back();
    visit(c);
    if (c.a != kNullPlan) stack.push_back(c.a);
    if (c.kind == PlanCell::Kind::Merge) stack.push_back(c.x);
  }
}

}  // namespace

std::vector<PlannedBuffer> collect(const PlanArena& arena, PlanRef plan) {
  std::vector<PlannedBuffer> out;
  walk(arena, plan, [&out](const PlanCell& c) {
    if (c.kind == PlanCell::Kind::Buffer)
      out.push_back(
          PlannedBuffer{rct::NodeId{c.x}, c.dist, lib::BufferId{c.y}});
  });
  return out;
}

std::vector<PlannedWire> collect_wires(const PlanArena& arena, PlanRef plan) {
  std::vector<PlannedWire> out;
  walk(arena, plan, [&out](const PlanCell& c) {
    if (c.kind == PlanCell::Kind::Wire)
      out.push_back(PlannedWire{rct::NodeId{c.x}, c.y});
  });
  return out;
}

void apply_plan(rct::RoutingTree& tree,
                const std::vector<PlannedBuffer>& plan,
                rct::BufferAssignment& out, bool allow_any_site) {
  // Group interior placements per wire (keyed by the wire's bottom node).
  std::map<rct::NodeId, std::vector<PlannedBuffer>> per_wire;
  for (const PlannedBuffer& p : plan) {
    if (p.dist_above <= 0.0) {
      if (allow_any_site) tree.set_buffer_allowed(p.node, true);
      out.place(p.node, p.type);
    } else {
      per_wire[p.node].push_back(p);
    }
  }
  for (auto& [below, group] : per_wire) {
    std::sort(group.begin(), group.end(),  // nbuf-lint: allow(sort)
              [](const PlannedBuffer& x, const PlannedBuffer& y) {
                return x.dist_above < y.dist_above;
              });
    // Split bottom-up; after each split the remaining upper part hangs off
    // the newly created node, so distances re-base onto it.
    rct::NodeId bottom = below;
    double consumed = 0.0;
    for (const PlannedBuffer& p : group) {
      const double d = p.dist_above - consumed;
      NBUF_ASSERT_MSG(d > 0.0, "duplicate buffer position on one wire");
      const rct::NodeId site = tree.split_wire(bottom, d, "buf_site");
      out.place(site, p.type);
      bottom = site;
      consumed = p.dist_above;
    }
  }
}

}  // namespace nbuf::core
