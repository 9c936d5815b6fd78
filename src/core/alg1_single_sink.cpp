#include "core/alg1_single_sink.hpp"

#include "core/noise_climb.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace nbuf::core {

lib::BufferId noise_buffer_choice(const lib::BufferLibrary& lib) {
  NBUF_EXPECTS_MSG(!lib.empty(), "empty buffer library");
  lib::BufferId best;
  for (lib::BufferId id : lib.ids()) {
    const lib::BufferType& t = lib.at(id);
    if (t.inverting) continue;
    // Smallest resistance; exact ties break on name so the same library
    // presented in any insertion order picks the same type (ids are
    // permutation-dependent, names are unique).
    if (!best.valid() || t.resistance < lib.at(best).resistance ||
        (t.resistance == lib.at(best).resistance &&
         t.name < lib.at(best).name))
      best = id;
  }
  if (best.valid()) return best;
  return lib.strongest();  // inverting-only library: caller's responsibility
}

NoiseAvoidanceResult avoid_noise_single_sink(const rct::RoutingTree& input,
                                             const lib::BufferLibrary& lib) {
  NBUF_TRACE_SPAN_TAGGED("alg1.run", input.node_count());
  NBUF_EXPECTS_MSG(input.sink_count() == 1, "Algorithm 1 needs one sink");
  for (rct::NodeId id : input.preorder())
    NBUF_EXPECTS_MSG(input.node(id).children.size() <= 1,
                     "Algorithm 1 needs a path topology");

  const lib::BufferId bid = noise_buffer_choice(lib);
  const lib::BufferType& b = lib.at(bid);

  NoiseAvoidanceResult result{input, {}, 0};
  rct::RoutingTree& tree = result.tree;
  PlanArena arena;

  // Step 1: initialize at the sink.
  const rct::SinkInfo& sink = tree.sinks().front();
  detail::ClimbState state;
  state.current = 0.0;
  state.noise_slack = sink.noise_margin;

  // Steps 2-4: climb every wire toward the source.
  rct::NodeId cur = sink.node;
  while (cur != tree.source()) {
    const rct::Node& n = tree.node(cur);
    state = detail::climb_wire(n.parent_wire, cur, state, b.resistance,
                               b.noise_margin, bid, arena);
    cur = n.parent;
  }

  // Step 5: driver check; guard buffer right below the source if needed
  // (only possible when the driver is weaker than the buffer).
  if (tree.driver().resistance * state.current > state.noise_slack) {
    const rct::Node& src = tree.node(tree.source());
    NBUF_ASSERT_MSG(src.children.size() == 1, "path topology");
    const rct::NodeId top = src.children.front();
    const double len = tree.node(top).parent_wire.length;
    NBUF_ASSERT_MSG(len > 0.0, "cannot guard a zero-length root wire");
    state.plan = arena.buffer(
        state.plan,
        PlannedBuffer{top, len * (1.0 - detail::kTopGapFrac), bid});
    ++state.buffers;
  }

  apply_plan(tree, collect(arena, state.plan), result.buffers,
             /*allow_any_site=*/true);
  result.buffer_count = state.buffers;
  NBUF_ASSERT(result.buffers.size() == state.buffers);
  tree.validate();
  return result;
}

}  // namespace nbuf::core
