// RC routing tree: the structure every algorithm in the paper operates on.
//
// A RoutingTree is a rooted tree with a unique source node (driven by a
// gate), sink nodes (gate input pins with load capacitance, required arrival
// time and noise margin), and internal nodes (Steiner points and candidate
// buffer sites). Every non-source node owns its unique parent wire
// (Section II: "each node has a unique parent wire").
//
// Wires carry lumped electrical values: resistance, capacitance, and the
// total coupling-injected noise current of the Devgan metric (eq. 6). The
// helpers in lib::Technology derive these from geometric length.
//
// The paper assumes binary trees; binarize() converts higher-degree Steiner
// points by inserting zero-length infeasible dummy nodes (footnote 1).
#pragma once

#include <string>
#include <vector>

#include "lib/buffer.hpp"
#include "util/strong_id.hpp"

namespace nbuf::rct {

struct NodeTag {};
using NodeId = util::StrongId<NodeTag>;
struct SinkTag {};
using SinkId = util::StrongId<SinkTag>;

enum class NodeKind { Source, Internal, Sink };

// Electrical values of one wire (the edge from a node to its parent).
struct Wire {
  double length = 0.0;            // µm (0 for binarization dummies)
  double resistance = 0.0;        // ohm
  double capacitance = 0.0;       // farad
  double coupling_current = 0.0;  // ampere — total injected current i_w

  // Proportional sub-wire covering `fraction` of this wire.
  [[nodiscard]] Wire scaled(double fraction) const;
};

// Sink pin data (Section II-A / II-B).
struct SinkInfo {
  std::string name;
  double cap = 0.0;              // farad — input pin capacitance
  double required_arrival = 0.0; // second — RAT(s)
  double noise_margin = 0.0;     // volt — NM(s)
  bool require_inverted = false; // polarity the sink expects vs. the source
  NodeId node;                   // filled in by RoutingTree::add_sink
};

// The gate driving the net at the source.
struct Driver {
  std::string name = "driver";
  double resistance = 0.0;       // ohm
  double intrinsic_delay = 0.0;  // second
};

struct Node {
  NodeKind kind = NodeKind::Internal;
  std::string name;
  NodeId parent;                   // invalid for the source
  Wire parent_wire;                // meaningless for the source
  std::vector<NodeId> children;    // at most 2 once binarized
  SinkId sink;                     // valid iff kind == Sink
  bool buffer_allowed = true;      // legal buffer site (internal nodes only)
};

class RoutingTree {
 public:
  // --- construction -------------------------------------------------------
  // Creates the unique source; must be called exactly once, first.
  NodeId make_source(Driver driver, std::string name = "source");

  // Adds an internal node under `parent` connected by `wire`.
  NodeId add_internal(NodeId parent, Wire wire, std::string name = "",
                      bool buffer_allowed = true);

  // Adds a sink under `parent` connected by `wire`.
  NodeId add_sink(NodeId parent, Wire wire, SinkInfo sink);

  // Splits the parent wire of `node`, inserting a new internal node at
  // `dist_above` µm above `node` (0 < dist_above < wire length). Electrical
  // values split proportionally. Returns the new node.
  NodeId split_wire(NodeId node, double dist_above,
                    std::string name = "", bool buffer_allowed = true);

  // Converts nodes with >2 children to binary via zero-length infeasible
  // dummies. Idempotent.
  void binarize();

  // --- access --------------------------------------------------------------
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] NodeId source() const;
  [[nodiscard]] const Driver& driver() const;
  [[nodiscard]] const SinkInfo& sink(SinkId id) const;
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t sink_count() const noexcept {
    return sinks_.size();
  }
  [[nodiscard]] const std::vector<SinkInfo>& sinks() const noexcept {
    return sinks_;
  }
  [[nodiscard]] bool is_binary() const;

  // All node ids in preorder (source first) / postorder (source last).
  [[nodiscard]] std::vector<NodeId> preorder() const;
  [[nodiscard]] std::vector<NodeId> postorder() const;
  // Nodes of the subtree rooted at `root`, preorder.
  [[nodiscard]] std::vector<NodeId> subtree_preorder(NodeId root) const;

  // --- aggregates ----------------------------------------------------------
  // Total wire capacitance + sink pin capacitance (no buffers).
  [[nodiscard]] double total_cap() const;
  [[nodiscard]] double total_wirelength() const;
  [[nodiscard]] double total_coupling_current() const;

  // Structural sanity: unique source, acyclic parent links, children/parent
  // agreement, sinks are leaves, non-negative electrical values.
  void validate() const;

  void set_driver(Driver d) { driver_ = std::move(d); }
  // Marks/unmarks a node as a legal buffer site.
  void set_buffer_allowed(NodeId id, bool allowed);
  // Overwrites the parent wire of `node` (used by segmenting and tests).
  void set_parent_wire(NodeId id, Wire wire);
  // Overwrites sink data (used by experiment drivers to set RATs/margins).
  void set_sink_info(SinkId id, SinkInfo info);

 private:
  Node& node_mut(NodeId id);
  NodeId add_node(Node n);

  std::vector<Node> nodes_;
  std::vector<SinkInfo> sinks_;
  Driver driver_;
  NodeId source_;
};

// Convenience builder for two-pin nets: a single wire of the given length
// (µm) from source to one sink, with electrical values from `tech`.
struct TwoPinSpec {
  double length = 0.0;  // µm
  Driver driver;
  SinkInfo sink;
};

}  // namespace nbuf::rct
