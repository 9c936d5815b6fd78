#include "rct/tree.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/check.hpp"

namespace nbuf::rct {

Wire Wire::scaled(double fraction) const {
  NBUF_EXPECTS(fraction >= 0.0 && fraction <= 1.0);
  Wire w;
  w.length = length * fraction;
  w.resistance = resistance * fraction;
  w.capacitance = capacitance * fraction;
  w.coupling_current = coupling_current * fraction;
  return w;
}

NodeId RoutingTree::make_source(Driver driver, std::string name) {
  NBUF_EXPECTS_MSG(nodes_.empty(), "source must be the first node");
  NBUF_EXPECTS(driver.resistance > 0.0);
  driver_ = std::move(driver);
  Node n;
  n.kind = NodeKind::Source;
  n.name = std::move(name);
  n.buffer_allowed = false;
  source_ = add_node(std::move(n));
  return source_;
}

NodeId RoutingTree::add_internal(NodeId parent, Wire wire, std::string name,
                                 bool buffer_allowed) {
  NBUF_EXPECTS(parent.valid() && parent.value() < nodes_.size());
  NBUF_EXPECTS_MSG(nodes_[parent.value()].kind != NodeKind::Sink,
                   "sinks are leaves");
  Node n;
  n.kind = NodeKind::Internal;
  n.name = std::move(name);
  n.parent = parent;
  n.parent_wire = wire;
  n.buffer_allowed = buffer_allowed;
  const NodeId id = add_node(std::move(n));
  nodes_[parent.value()].children.push_back(id);
  return id;
}

NodeId RoutingTree::add_sink(NodeId parent, Wire wire, SinkInfo sink) {
  NBUF_EXPECTS(parent.valid() && parent.value() < nodes_.size());
  NBUF_EXPECTS_MSG(nodes_[parent.value()].kind != NodeKind::Sink,
                   "sinks are leaves");
  NBUF_EXPECTS(sink.cap >= 0.0);
  NBUF_EXPECTS(sink.noise_margin > 0.0);
  Node n;
  n.kind = NodeKind::Sink;
  n.name = sink.name;
  n.parent = parent;
  n.parent_wire = wire;
  n.buffer_allowed = false;
  n.sink = SinkId{static_cast<SinkId::underlying_type>(sinks_.size())};
  const NodeId id = add_node(std::move(n));
  sink.node = id;
  sinks_.push_back(std::move(sink));
  nodes_[parent.value()].children.push_back(id);
  return id;
}

NodeId RoutingTree::split_wire(NodeId child, double dist_above,
                               std::string name, bool buffer_allowed) {
  NBUF_EXPECTS(child.valid() && child.value() < nodes_.size());
  Node& c = nodes_[child.value()];
  NBUF_EXPECTS_MSG(c.kind != NodeKind::Source, "source has no parent wire");
  const Wire whole = c.parent_wire;
  NBUF_EXPECTS_MSG(whole.length > 0.0, "cannot split a zero-length wire");
  NBUF_EXPECTS_MSG(dist_above > 0.0 && dist_above < whole.length,
                   "split point must be strictly inside the wire");
  const double f = dist_above / whole.length;

  Node mid;
  mid.kind = NodeKind::Internal;
  mid.name = std::move(name);
  mid.parent = c.parent;
  mid.parent_wire = whole.scaled(1.0 - f);  // upper part
  mid.buffer_allowed = buffer_allowed;
  mid.children.push_back(child);
  const NodeId mid_id = add_node(std::move(mid));

  // Re-acquire: add_node may have reallocated nodes_.
  Node& child_node = nodes_[child.value()];
  Node& parent_node = nodes_[child_node.parent.value()];
  auto it = std::find(parent_node.children.begin(),
                      parent_node.children.end(), child);
  NBUF_ASSERT(it != parent_node.children.end());
  *it = mid_id;
  child_node.parent = mid_id;
  child_node.parent_wire = whole.scaled(f);  // lower part
  return mid_id;
}

void RoutingTree::binarize() {
  // Iterate by index; new dummies are appended and themselves revisited,
  // so arbitrarily high degrees reduce to 2.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    while (nodes_[i].children.size() > 2) {
      // Move the last two children under a zero-length dummy (footnote 1:
      // which pair is chosen does not affect any algorithm's result).
      const NodeId a = nodes_[i].children[nodes_[i].children.size() - 2];
      const NodeId b = nodes_[i].children[nodes_[i].children.size() - 1];
      Node dummy;
      dummy.kind = NodeKind::Internal;
      dummy.name = nodes_[i].name + "/bin";
      dummy.parent = NodeId{static_cast<NodeId::underlying_type>(i)};
      dummy.parent_wire = Wire{};  // zero length, zero parasitics
      dummy.buffer_allowed = false;
      dummy.children = {a, b};
      const NodeId dummy_id = add_node(std::move(dummy));
      nodes_[a.value()].parent = dummy_id;
      nodes_[b.value()].parent = dummy_id;
      auto& ch = nodes_[i].children;
      ch.pop_back();
      ch.pop_back();
      ch.push_back(dummy_id);
    }
  }
}

const Node& RoutingTree::node(NodeId id) const {
  NBUF_EXPECTS(id.valid() && id.value() < nodes_.size());
  return nodes_[id.value()];
}

Node& RoutingTree::node_mut(NodeId id) {
  NBUF_EXPECTS(id.valid() && id.value() < nodes_.size());
  return nodes_[id.value()];
}

NodeId RoutingTree::source() const {
  NBUF_EXPECTS_MSG(source_.valid(), "tree has no source yet");
  return source_;
}

const Driver& RoutingTree::driver() const { return driver_; }

const SinkInfo& RoutingTree::sink(SinkId id) const {
  NBUF_EXPECTS(id.valid() && id.value() < sinks_.size());
  return sinks_[id.value()];
}

bool RoutingTree::is_binary() const {
  return std::all_of(nodes_.begin(), nodes_.end(), [](const Node& n) {
    return n.children.size() <= 2;
  });
}

std::vector<NodeId> RoutingTree::preorder() const {
  return subtree_preorder(source());
}

std::vector<NodeId> RoutingTree::subtree_preorder(NodeId root) const {
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    order.push_back(id);
    const Node& n = node(id);
    // Push right-to-left so children come out left-to-right.
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it)
      stack.push_back(*it);
  }
  return order;
}

std::vector<NodeId> RoutingTree::postorder() const {
  std::vector<NodeId> order = preorder();
  std::reverse(order.begin(), order.end());
  // Reversed preorder visits every node after all of its descendants (it is
  // a valid postorder, though not the mirror-image one).
  return order;
}

double RoutingTree::total_cap() const {
  double c = 0.0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.kind != NodeKind::Source) c += n.parent_wire.capacitance;
    if (n.kind == NodeKind::Sink) c += sinks_[n.sink.value()].cap;
  }
  return c;
}

double RoutingTree::total_wirelength() const {
  double l = 0.0;
  for (const Node& n : nodes_)
    if (n.kind != NodeKind::Source) l += n.parent_wire.length;
  return l;
}

double RoutingTree::total_coupling_current() const {
  double i = 0.0;
  for (const Node& n : nodes_)
    if (n.kind != NodeKind::Source) i += n.parent_wire.coupling_current;
  return i;
}

void RoutingTree::validate() const {
  NBUF_EXPECTS_MSG(source_.valid(), "no source");
  NBUF_EXPECTS(nodes_[source_.value()].kind == NodeKind::Source);
  NBUF_EXPECTS(!nodes_[source_.value()].parent.valid());
  NBUF_EXPECTS(driver_.resistance > 0.0);

  std::size_t sinks_seen = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    const NodeId id{static_cast<NodeId::underlying_type>(i)};
    if (n.kind == NodeKind::Source) {
      NBUF_ASSERT_MSG(id == source_, "multiple sources");
    } else {
      NBUF_ASSERT(n.parent.valid());
      const Node& p = node(n.parent);
      NBUF_ASSERT_MSG(
          std::find(p.children.begin(), p.children.end(), id) !=
              p.children.end(),
          "parent/child links disagree");
      NBUF_ASSERT(n.parent_wire.resistance >= 0.0);
      NBUF_ASSERT(n.parent_wire.capacitance >= 0.0);
      NBUF_ASSERT(n.parent_wire.coupling_current >= 0.0);
      NBUF_ASSERT(n.parent_wire.length >= 0.0);
    }
    if (n.kind == NodeKind::Sink) {
      NBUF_ASSERT_MSG(n.children.empty(), "sinks must be leaves");
      NBUF_ASSERT(n.sink.valid() && n.sink.value() < sinks_.size());
      NBUF_ASSERT(sinks_[n.sink.value()].node == id);
      ++sinks_seen;
    }
  }
  NBUF_ASSERT(sinks_seen == sinks_.size());

  // Reachability: every node is visited exactly once from the source.
  const auto order = preorder();
  NBUF_ASSERT_MSG(order.size() == nodes_.size(),
                  "tree is disconnected or cyclic");
  std::unordered_set<NodeId::underlying_type> seen;
  for (NodeId v : order) NBUF_ASSERT(seen.insert(v.value()).second);
}

void RoutingTree::set_buffer_allowed(NodeId id, bool allowed) {
  Node& n = node_mut(id);
  NBUF_EXPECTS_MSG(n.kind == NodeKind::Internal || !allowed,
                   "only internal nodes can host buffers");
  n.buffer_allowed = allowed;
}

void RoutingTree::set_parent_wire(NodeId id, Wire wire) {
  Node& n = node_mut(id);
  NBUF_EXPECTS_MSG(n.kind != NodeKind::Source, "source has no parent wire");
  n.parent_wire = wire;
}

void RoutingTree::set_sink_info(SinkId id, SinkInfo info) {
  NBUF_EXPECTS(id.valid() && id.value() < sinks_.size());
  NBUF_EXPECTS_MSG(info.node == sinks_[id.value()].node,
                   "sink info must keep its node binding");
  sinks_[id.value()] = std::move(info);
}

NodeId RoutingTree::add_node(Node n) {
  nodes_.push_back(std::move(n));
  return NodeId{static_cast<NodeId::underlying_type>(nodes_.size() - 1)};
}

}  // namespace nbuf::rct
