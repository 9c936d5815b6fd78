// The core::IncrementalContext re-optimization cache vs cold full DP runs.
#include <gtest/gtest.h>

#include "common/test_nets.hpp"
#include "core/incremental.hpp"
#include "core/vanginneken.hpp"
#include "lib/wire.hpp"
#include "seg/segment.hpp"
#include "steiner/builders.hpp"
#include "steiner/steiner.hpp"
#include "util/rng.hpp"

namespace {

using namespace nbuf;
using namespace nbuf::units;
using test::default_driver;
using test::default_sink;

const lib::BufferLibrary kLib = lib::default_library();

rct::RoutingTree random_net(util::Rng& rng) {
  const int sinks = rng.uniform_int(2, 10);
  const double span = rng.uniform(7000.0 / 3.0, 7000.0);
  std::vector<steiner::PinSpec> pins;
  for (int i = 0; i < sinks; ++i) {
    steiner::PinSpec p;
    p.at = {rng.uniform(0.2 * span, span), rng.uniform(0.0, span)};
    p.info = default_sink(rng.uniform(5 * fF, 30 * fF), 0.0, 0.8,
                          ("s" + std::to_string(i)).c_str());
    pins.push_back(p);
  }
  return steiner::build_tree({0, 0}, default_driver(rng.uniform(60, 350)),
                             pins, lib::default_technology());
}

// A random local edit (WireScale / SinkSet / WireSplit): rescale factors
// in [0.4, 2.5], sink cap x[0.5, 2.0] with a fresh margin in [0.3, 1.2] V,
// splits at [0.25, 0.75] of wires longer than 1 µm (shorter wires degrade
// to a WireScale so every draw yields a usable edit).
core::Perturbation random_perturbation(util::Rng& rng,
                                       const rct::RoutingTree& tree) {
  using core::Perturbation;
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

// ---------------------------------------------------------------------------
// core::IncrementalContext: the subtree-memoized DP must answer perturbed
// trees bit-identically to a cold full run on the same tree. The context
// always runs the fast kernel; `kernel = Reference` here selects the cold
// side, so every comparison is memoized Fast against one-shot Reference.

core::VgOptions inc_options() {
  core::VgOptions opt;
  opt.kernel = core::VgKernel::Reference;
  opt.max_buffers = 8;
  return opt;
}

// inc_options() in six shapes, one per DP path the memo must carry
// bit-identically: the BuffOpt default, the min-buffers objective, wire
// sizing (the fork/sort path), a binding count cap, a finite slew limit,
// and DelayOpt without noise constraints.
core::VgOptions inc_variant(int which) {
  core::VgOptions opt = inc_options();
  switch (which % 6) {
    case 0:
      break;
    case 1:
      opt.objective = core::VgObjective::MinBuffersMeetingConstraints;
      break;
    case 2:
      opt.wire_widths = lib::default_wire_widths();
      break;
    case 3:
      opt.max_buffers = 2;
      break;
    case 4:
      opt.max_slew = 150.0 * ps;
      break;
    case 5:
      opt.noise_constraints = false;
      break;
  }
  return opt;
}

rct::RoutingTree random_dp_net(util::Rng& rng) {
  auto t = random_net(rng);
  t.binarize();
  seg::segment(t, {900.0});
  return t;
}

TEST(IncrementalContext, FirstRunMatchesPlainOptimize) {
  util::Rng rng(20260811);
  for (int trial = 0; trial < 6; ++trial) {
    auto t = random_dp_net(rng);
    core::IncrementalContext ctx(t, kLib, inc_options());
    const auto& got = ctx.optimize();
    const auto want = core::optimize(t, kLib, inc_options());
    ASSERT_TRUE(core::same_solution(got, want)) << "trial " << trial;
    EXPECT_EQ(ctx.stats().last_reused, 0u);
    EXPECT_EQ(ctx.stats().last_recomputed, t.node_count());
    ASSERT_NE(ctx.result(), nullptr);
    EXPECT_TRUE(core::same_solution(*ctx.result(), want));
  }
}

// The extraction guard: the 120-case differential, re-pointed at the
// library API. Random local edits flow through IncrementalContext::apply
// and the memoized re-run must equal a from-scratch core::optimize on the
// perturbed tree — the exact contract the serve layer's PERTURB relies on —
// under every option variant (trial % 6).
TEST(IncrementalContext, DifferentialAgainstColdRunOnPerturbedTrees) {
  util::Rng rng(20260807);
  std::size_t reused_total = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const core::VgOptions opt = inc_variant(trial);
    auto t = random_dp_net(rng);
    core::IncrementalContext ctx(std::move(t), kLib, opt);
    (void)ctx.optimize();
    const int edits = rng.uniform_int(1, 4);
    for (int e = 0; e < edits; ++e)
      (void)ctx.apply(random_perturbation(rng, ctx.tree()));
    const auto& fast = ctx.optimize();
    reused_total += ctx.stats().last_reused;
    const auto cold = core::optimize(ctx.tree(), kLib, opt);
    ASSERT_TRUE(core::same_solution(fast, cold))
        << "trial " << trial << " variant " << trial % 6;
    // With no edit in between, the whole answer comes from the memo,
    // the source's lists included.
    ASSERT_TRUE(core::same_solution(ctx.optimize(), cold))
        << "trial " << trial << " re-run";
    EXPECT_EQ(ctx.stats().last_recomputed, 0u);
  }
  // Local edits must actually exercise the cache, not recompute the world.
  EXPECT_GT(reused_total, 0u);
}

TEST(IncrementalContext, LocalEditReusesSiblingSubtrees) {
  util::Rng rng(20260812);
  auto t = random_dp_net(rng);
  core::IncrementalContext ctx(std::move(t), kLib, inc_options());
  (void)ctx.optimize();
  // Retune one sink: only its root spine should recompute.
  rct::SinkInfo s = ctx.tree().sink(rct::SinkId{0});
  s.cap *= 1.5;
  ctx.set_sink(rct::SinkId{0}, s);
  (void)ctx.optimize();
  EXPECT_GT(ctx.stats().last_reused, 0u);
  // A cache hit stops recursion, so the run touches only the dirty spine
  // plus its clean-frontier children — far fewer visits than nodes.
  EXPECT_LT(ctx.stats().last_reused + ctx.stats().last_recomputed,
            ctx.tree().node_count());
}

TEST(IncrementalContext, GlobalEditsInvalidateEverything) {
  util::Rng rng(20260813);
  auto t = random_dp_net(rng);
  core::IncrementalContext ctx(std::move(t), kLib, inc_options());
  (void)ctx.optimize();
  ctx.tighten_margins(0.05);
  const auto& got = ctx.optimize();
  EXPECT_EQ(ctx.stats().last_reused, 0u);
  const auto cold = core::optimize(ctx.tree(), kLib, inc_options());
  EXPECT_TRUE(core::same_solution(got, cold));
  ctx.scale_coupling(1.3);
  (void)ctx.optimize();
  EXPECT_EQ(ctx.stats().last_reused, 0u);
}

TEST(IncrementalContext, SplitWireGrowsTreeAndStaysConsistent) {
  util::Rng rng(20260814);
  auto t = random_dp_net(rng);
  core::IncrementalContext ctx(std::move(t), kLib, inc_options());
  (void)ctx.optimize();
  // Find a splittable wire.
  rct::NodeId target;
  for (auto v : ctx.tree().preorder()) {
    if (v == ctx.tree().source()) continue;
    if (ctx.tree().node(v).parent_wire.length > 1.0) {
      target = v;
      break;
    }
  }
  ASSERT_TRUE(target.valid());
  const double len = ctx.tree().node(target).parent_wire.length;
  const std::size_t before = ctx.tree().node_count();
  const rct::NodeId n = ctx.split_wire(target, 0.5 * len);
  ASSERT_TRUE(n.valid());
  EXPECT_EQ(ctx.tree().node_count(), before + 1);
  const auto& got = ctx.optimize();
  const auto cold = core::optimize(ctx.tree(), kLib, inc_options());
  EXPECT_TRUE(core::same_solution(got, cold));
}

// Every run clamps max_buffers to the tree's buffer sites, and each split
// below adds a site and raises the clamp. Nodes cached under a lower clamp
// are padded with empty buckets, not recomputed, and every answer stays
// the cold run's and that of a fast-kernel run over all 24 buckets.
TEST(IncrementalContext, SplitsRaiseTheSiteClampExactly) {
  core::VgOptions opt = inc_options();
  opt.max_buffers = 24;
  rct::RoutingTree t = steiner::make_balanced_tree(
      3, 1500.0, default_driver(), default_sink(), lib::default_technology());
  t.binarize();
  core::IncrementalContext ctx(std::move(t), kLib, opt);
  (void)ctx.optimize();
  std::size_t reused = 0;
  for (std::size_t s = 0; s < 10; ++s) {
    SCOPED_TRACE("split " + std::to_string(s));
    // The s-th non-source node in preorder, split above its midpoint.
    const rct::NodeId v = ctx.tree().preorder()[1 + s % 6];
    (void)ctx.split_wire(v, 0.5 * ctx.tree().node(v).parent_wire.length);
    const auto& got = ctx.optimize();
    reused += ctx.stats().last_reused;
    ASSERT_TRUE(
        core::same_solution(got, core::optimize(ctx.tree(), kLib, opt)));
    core::PlanArena arena;
    ASSERT_TRUE(core::same_solution(
        got, core::detail::run_fast_kernel(ctx.tree(), kLib, opt, arena)));
  }
  EXPECT_GT(reused, 0u);
  EXPECT_LT(core::detail::clamped_to_sites(ctx.tree(), opt).max_buffers,
            opt.max_buffers);  // the clamp bound in every run
}

TEST(IncrementalContext, InvalidateAllForcesColdRun) {
  util::Rng rng(20260815);
  auto t = random_dp_net(rng);
  core::IncrementalContext ctx(std::move(t), kLib, inc_options());
  const auto first = ctx.optimize();
  ctx.invalidate_all();
  const auto& again = ctx.optimize();
  EXPECT_EQ(ctx.stats().last_reused, 0u);
  EXPECT_EQ(ctx.stats().last_recomputed, ctx.tree().node_count());
  EXPECT_TRUE(core::same_solution(first, again));
  EXPECT_EQ(ctx.stats().runs, 2u);
}

}  // namespace
