#include "steiner/steiner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace nbuf::steiner {

namespace {

constexpr double kEps = 1e-9;

// Geometric tree under construction. Each edge parent->child is embedded as
// an L: horizontal from the parent to (child.x, parent.y), then vertical.
struct GNode {
  Point p;
  int parent = -1;
  int pin = -1;  // index into the pins vector, -1 for source/Steiner nodes
};

struct Attachment {
  double dist = std::numeric_limits<double>::infinity();
  int edge_child = -1;  // edge identified by its child node
  Point at;             // closest point on that edge's L
  bool at_child = false;
  bool at_parent = false;
};

// Closest point on the horizontal segment y=y0, x in [xa,xb] (unordered).
Point clamp_h(Point q, double xa, double xb, double y0) {
  const double lo = std::min(xa, xb), hi = std::max(xa, xb);
  return {std::clamp(q.x, lo, hi), y0};
}
Point clamp_v(Point q, double ya, double yb, double x0) {
  const double lo = std::min(ya, yb), hi = std::max(ya, yb);
  return {x0, std::clamp(q.y, lo, hi)};
}

Attachment closest_on_edge(const std::vector<GNode>& nodes, int child,
                           Point q) {
  const GNode& c = nodes[child];
  const GNode& par = nodes[c.parent];
  const Point bend{c.p.x, par.p.y};
  Attachment best;
  for (Point cand : {clamp_h(q, par.p.x, bend.x, par.p.y),
                     clamp_v(q, bend.y, c.p.y, bend.x)}) {
    const double d = manhattan(q, cand);
    if (d < best.dist) {
      best.dist = d;
      best.at = cand;
    }
  }
  best.edge_child = child;
  best.at_child = manhattan(best.at, c.p) < kEps;
  best.at_parent = manhattan(best.at, par.p) < kEps;
  return best;
}

struct GeomTree {
  std::vector<GNode> nodes;  // nodes[0] is the source

  // Distance from `at` to `child` along the edge's L (used to verify the
  // attachment point lies on the staircase; both sub-edges stay monotone).
  int attach(Point q, int pin) {
    Attachment best;
    for (int i = 1; i < static_cast<int>(nodes.size()); ++i) {
      const Attachment a = closest_on_edge(nodes, i, q);
      if (a.dist < best.dist) best = a;
    }
    int hook;  // node the new pin hangs from
    if (nodes.size() == 1) {
      hook = 0;  // only the source exists
    } else if (best.at_parent) {
      hook = nodes[best.edge_child].parent;
    } else if (best.at_child) {
      hook = best.edge_child;
    } else {
      // Interior attachment: split the edge with a Steiner node. Splitting
      // an L at a point on it keeps both halves monotone, so manhattan
      // lengths remain exact.
      GNode steiner;
      steiner.p = best.at;
      steiner.parent = nodes[best.edge_child].parent;
      nodes.push_back(steiner);
      hook = static_cast<int>(nodes.size()) - 1;
      nodes[best.edge_child].parent = hook;
    }
    GNode leaf;
    leaf.p = q;
    leaf.parent = hook;
    leaf.pin = pin;
    nodes.push_back(leaf);
    return static_cast<int>(nodes.size()) - 1;
  }
};

GeomTree route(Point source_at, const std::vector<PinSpec>& pins) {
  GeomTree g;
  g.nodes.push_back(GNode{source_at, -1, -1});
  // Prim-style: repeatedly attach the pin currently closest to the tree.
  std::vector<bool> done(pins.size(), false);
  for (std::size_t round = 0; round < pins.size(); ++round) {
    int best_pin = -1;
    double best_dist = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < pins.size(); ++i) {
      if (done[i]) continue;
      double d = manhattan(pins[i].at, g.nodes[0].p);
      for (int e = 1; e < static_cast<int>(g.nodes.size()); ++e)
        d = std::min(d, closest_on_edge(g.nodes, e, pins[i].at).dist);
      if (d < best_dist) {
        best_dist = d;
        best_pin = static_cast<int>(i);
      }
    }
    NBUF_ASSERT(best_pin >= 0);
    done[best_pin] = true;
    g.attach(pins[best_pin].at, best_pin);
  }
  return g;
}

}  // namespace

double manhattan(Point a, Point b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

rct::RoutingTree build_tree(Point source_at, rct::Driver driver,
                            const std::vector<PinSpec>& pins,
                            const lib::Technology& tech) {
  NBUF_EXPECTS_MSG(!pins.empty(), "a net needs at least one sink");
  tech.validate();
  const GeomTree g = route(source_at, pins);

  auto make_wire = [&](double length) {
    rct::Wire w;
    w.length = length;
    w.resistance = tech.wire_res(length);
    w.capacitance = tech.wire_cap(length);
    w.coupling_current = tech.wire_coupling_current(length);
    return w;
  };

  rct::RoutingTree tree;
  std::vector<rct::NodeId> made(g.nodes.size());
  made[0] = tree.make_source(std::move(driver));

  // Children must be created after parents; geometric nodes reference
  // earlier parents except pins re-parented onto later Steiner nodes, so
  // process in dependency order.
  std::vector<int> order;
  order.reserve(g.nodes.size());
  std::vector<std::vector<int>> kids(g.nodes.size());
  for (int i = 1; i < static_cast<int>(g.nodes.size()); ++i)
    kids[g.nodes[i].parent].push_back(i);
  std::vector<int> stack{0};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    if (v != 0) order.push_back(v);
    for (int k : kids[v]) stack.push_back(k);
  }
  NBUF_ASSERT(order.size() + 1 == g.nodes.size());

  for (int v : order) {
    const GNode& n = g.nodes[v];
    const double len = manhattan(n.p, g.nodes[n.parent].p);
    const rct::Wire wire = make_wire(len);
    if (n.pin < 0) {
      made[v] = tree.add_internal(made[n.parent], wire, "steiner");
    } else if (kids[v].empty()) {
      made[v] = tree.add_sink(made[n.parent], wire,
                              pins[static_cast<std::size_t>(n.pin)].info);
    } else {
      // A later pin attached at this pin's location: sinks must stay
      // leaves, so the junction becomes an internal node and the sink pin
      // hangs off it through a zero-length stub.
      made[v] = tree.add_internal(made[n.parent], wire, "pin_junction");
      tree.add_sink(made[v], rct::Wire{},
                    pins[static_cast<std::size_t>(n.pin)].info);
    }
  }
  tree.binarize();
  tree.validate();
  return tree;
}

}  // namespace nbuf::steiner
