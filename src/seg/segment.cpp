#include "seg/segment.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace nbuf::seg {

std::size_t segment(rct::RoutingTree& tree, const Options& options) {
  NBUF_EXPECTS(options.max_segment_length > 0.0);
  NBUF_TRACE_SPAN_TAGGED("seg.segment", tree.node_count());
  // Snapshot ids first: splits append nodes whose parent wires are already
  // short enough by construction.
  std::vector<rct::NodeId> ids = tree.preorder();
  // Count the pieces before any split, in doubles: a ratio beyond SIZE_MAX
  // (or a NaN length) must be refused, not cast.
  double extra = 0.0;
  for (rct::NodeId id : ids) {
    const rct::Node& n = tree.node(id);
    const double len = n.parent_wire.length;
    if (n.kind != rct::NodeKind::Source && !(len <= options.max_segment_length))
      extra += std::ceil(len / options.max_segment_length) - 1.0;
  }
  const double room = static_cast<double>(kMaxSegmentedNodes) -
                      static_cast<double>(tree.node_count());
  if (!(extra <= room)) {
    std::ostringstream msg;
    msg << "segmenting at " << options.max_segment_length << " um would add "
        << extra << " nodes to a " << tree.node_count()
        << "-node tree, over the bound of " << kMaxSegmentedNodes << " nodes";
    throw std::invalid_argument(msg.str());
  }
  std::size_t added = 0;
  for (rct::NodeId id : ids) {
    const rct::Node& n = tree.node(id);
    if (n.kind == rct::NodeKind::Source) continue;
    const double len = n.parent_wire.length;
    if (len <= options.max_segment_length) continue;
    const auto pieces =
        static_cast<std::size_t>(std::ceil(len / options.max_segment_length));
    const double piece_len = len / static_cast<double>(pieces);
    // Peel the upper part off repeatedly; cut positions measured from the
    // upstream end ascend, so each cut stays interior to the lower piece.
    for (std::size_t k = 1; k < pieces; ++k) {
      const double cut_from_top = static_cast<double>(k) * piece_len;
      tree.split_wire(id, len - cut_from_top, "", /*buffer_allowed=*/true);
      ++added;
    }
  }
  return added;
}

}  // namespace nbuf::seg
