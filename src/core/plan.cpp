#include "core/plan.hpp"

#include <algorithm>
#include <map>

#include "util/check.hpp"

namespace nbuf::core {

const PlanCell* PlanArena::buffer(const PlanCell* prev,
                                  PlannedBuffer placement) {
  NBUF_EXPECTS(placement.node.valid());
  NBUF_EXPECTS(placement.type.valid());
  NBUF_EXPECTS(placement.dist_above >= 0.0);
  PlanCell c;
  c.kind = PlanCell::Kind::Buffer;
  c.placement = placement;
  c.a = prev;
  cells_.push_back(c);
  return &cells_.back();
}

const PlanCell* PlanArena::wire(const PlanCell* prev, PlannedWire choice) {
  NBUF_EXPECTS(choice.node.valid());
  PlanCell c;
  c.kind = PlanCell::Kind::Wire;
  c.wire = choice;
  c.a = prev;
  cells_.push_back(c);
  return &cells_.back();
}

const PlanCell* PlanArena::merge(const PlanCell* left, const PlanCell* right) {
  if (left == nullptr) return right;
  if (right == nullptr) return left;
  PlanCell c;
  c.kind = PlanCell::Kind::Merge;
  c.a = left;
  c.b = right;
  cells_.push_back(c);
  return &cells_.back();
}

// The ref builders delegate to the pointer builders (one code path for the
// cell payload checks) and hand back the index of the appended cell. A
// PlanRef is 32-bit; one DP run materializing 2^32 cells would long since
// have exhausted memory, but the contract makes the limit explicit.
PlanRef PlanArena::buffer_ref(PlanRef prev, PlannedBuffer placement) {
  buffer(cell(prev), placement);
  NBUF_ASSERT(cells_.size() < UINT32_MAX);
  return static_cast<PlanRef>(cells_.size());
}

PlanRef PlanArena::wire_ref(PlanRef prev, PlannedWire choice) {
  wire(cell(prev), choice);
  NBUF_ASSERT(cells_.size() < UINT32_MAX);
  return static_cast<PlanRef>(cells_.size());
}

PlanRef PlanArena::merge_ref(PlanRef left, PlanRef right) {
  if (left == kNullPlan) return right;
  if (right == kNullPlan) return left;
  merge(cell(left), cell(right));
  NBUF_ASSERT(cells_.size() < UINT32_MAX);
  return static_cast<PlanRef>(cells_.size());
}

std::vector<PlannedBuffer> collect(const PlanCell* plan) {
  std::vector<PlannedBuffer> out;
  std::vector<const PlanCell*> stack;
  if (plan != nullptr) stack.push_back(plan);
  while (!stack.empty()) {
    const PlanCell* c = stack.back();
    stack.pop_back();
    if (c->kind == PlanCell::Kind::Buffer) out.push_back(c->placement);
    if (c->a != nullptr) stack.push_back(c->a);
    if (c->b != nullptr) stack.push_back(c->b);
  }
  return out;
}

std::vector<PlannedWire> collect_wires(const PlanCell* plan) {
  std::vector<PlannedWire> out;
  std::vector<const PlanCell*> stack;
  if (plan != nullptr) stack.push_back(plan);
  while (!stack.empty()) {
    const PlanCell* c = stack.back();
    stack.pop_back();
    if (c->kind == PlanCell::Kind::Wire) out.push_back(c->wire);
    if (c->a != nullptr) stack.push_back(c->a);
    if (c->b != nullptr) stack.push_back(c->b);
  }
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
