// Incremental Devgan noise queries vs full re-analysis, and the
// core::IncrementalContext re-optimization cache vs cold full DP runs.
#include <gtest/gtest.h>

#include "common/test_nets.hpp"
#include "core/incremental.hpp"
#include "core/vanginneken.hpp"
#include "lib/wire.hpp"
#include "noise/devgan.hpp"
#include "noise/incremental.hpp"
#include "seg/segment.hpp"
#include "steiner/steiner.hpp"
#include "util/rng.hpp"

namespace {

using namespace nbuf;
using namespace nbuf::units;
using test::default_driver;
using test::default_sink;

const lib::BufferLibrary kLib = lib::default_library();

rct::RoutingTree random_net(util::Rng& rng, int sinks = 0,
                            double max_span = 9000.0) {
  if (sinks == 0) sinks = rng.uniform_int(2, 10);
  const double span = rng.uniform(max_span / 3.0, max_span);
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

// Naive LCA through parent chains.
rct::NodeId naive_lca(const rct::RoutingTree& t, rct::NodeId a,
                      rct::NodeId b) {
  std::vector<rct::NodeId> pa;
  for (rct::NodeId c = a; c.valid(); c = t.node(c).parent) pa.push_back(c);
  for (rct::NodeId c = b; c.valid(); c = t.node(c).parent)
    for (rct::NodeId x : pa)
      if (x == c) return c;
  return t.source();
}

TEST(Incremental, MatchesDevganOnFig3) {
  const auto f = test::fig3_net(100.0);
  const noise::IncrementalNoise inc(f.tree);
  EXPECT_NEAR(inc.current(f.n), 50 * uA, 1e-12);
  EXPECT_NEAR(inc.noise(f.s1), 19.0 * mV, 1e-9);
  EXPECT_NEAR(inc.noise(f.s2), 17.5 * mV, 1e-9);
  EXPECT_NEAR(inc.noise_slack(f.n), 0.8 - 3.0 * mV, 1e-9);
  EXPECT_NEAR(inc.upstream_resistance(f.s1), 100.0 + 100.0 + 200.0, 1e-9);
}

TEST(Incremental, MatchesDevganEverywhereOnRandomNets) {
  util::Rng rng(909);
  for (int trial = 0; trial < 8; ++trial) {
    auto t = random_net(rng);
    const noise::IncrementalNoise inc(t);
    const auto slacks = noise::noise_slacks(t);
    const auto stages =
        rct::decompose(t, rct::BufferAssignment{}, lib::BufferLibrary{});
    const auto nz = noise::stage_noise(t, stages[0]);
    const auto cur = noise::stage_currents(t, stages[0]);
    for (auto id : t.preorder()) {
      EXPECT_NEAR(inc.noise(id), nz.at(id), 1e-12) << trial;
      EXPECT_NEAR(inc.current(id), cur.at(id), 1e-15) << trial;
      EXPECT_NEAR(inc.noise_slack(id), slacks.at(id), 1e-12) << trial;
    }
  }
}

TEST(Incremental, LcaMatchesNaive) {
  util::Rng rng(911);
  for (int trial = 0; trial < 6; ++trial) {
    auto t = random_net(rng);
    const noise::IncrementalNoise inc(t);
    const auto nodes = t.preorder();
    for (int q = 0; q < 60; ++q) {
      const auto a = nodes[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(nodes.size()) - 1))];
      const auto b = nodes[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(nodes.size()) - 1))];
      EXPECT_EQ(inc.lca(a, b), naive_lca(t, a, b));
    }
  }
}

TEST(Incremental, CommonResistanceMatchesPathWalk) {
  util::Rng rng(912);
  auto t = random_net(rng, 6);
  const noise::IncrementalNoise inc(t);
  for (const auto& sa : t.sinks()) {
    for (const auto& sb : t.sinks()) {
      const auto l = naive_lca(t, sa.node, sb.node);
      double r = t.driver().resistance;
      for (rct::NodeId c = l; c != t.source(); c = t.node(c).parent)
        r += t.node(c).parent_wire.resistance;
      EXPECT_NEAR(inc.common_resistance(sa.node, sb.node), r, 1e-9);
    }
  }
}

TEST(Incremental, DecoupledNoiseMatchesActualBufferPlacement) {
  // Physically place a buffer at v and fully re-analyze: the O(1) formula
  // must agree at the buffer input and at every outside sink. (Buffer input
  // pins inject no current, so the metric sees exactly the decoupling.)
  util::Rng rng(913);
  for (int trial = 0; trial < 6; ++trial) {
    auto t = random_net(rng);
    const noise::IncrementalNoise inc(t);
    for (auto v : t.preorder()) {
      const auto& nd = t.node(v);
      if (nd.kind != rct::NodeKind::Internal || !nd.buffer_allowed) continue;
      rct::BufferAssignment a;
      a.place(v, lib::BufferId{8});  // buf_x8
      const auto rep = noise::analyze(t, a, kLib);
      // Buffer input leaf.
      for (const auto& leaf : rep.leaves)
        if (leaf.is_buffer_input && leaf.node == v) {
          EXPECT_NEAR(inc.noise_with_subtree_decoupled(v, v), leaf.noise,
                      1e-12);
        }
      // Outside sinks keep the driver as their restoring gate.
      for (const auto& s : t.sinks()) {
        bool inside = false;
        for (rct::NodeId c = s.node; c.valid(); c = t.node(c).parent)
          if (c == v) inside = true;
        if (inside) continue;
        EXPECT_NEAR(inc.noise_with_subtree_decoupled(s.node, v),
                    rep.sinks[t.node(s.node).sink.value()].noise, 1e-12);
      }
    }
  }
}

TEST(Incremental, DecoupledQueryRejectsInsideNodes) {
  const auto f = test::fig3_net();
  const noise::IncrementalNoise inc(f.tree);
  EXPECT_THROW((void)inc.noise_with_subtree_decoupled(f.s1, f.n),
               std::invalid_argument);
}

TEST(Incremental, SingleBufferFixesMatchesNaive) {
  util::Rng rng(914);
  int fixable_nets = 0;
  for (int trial = 0; trial < 10; ++trial) {
    // Small spans: a mix of clean, one-buffer-fixable and unfixable nets.
    auto t = random_net(rng, rng.uniform_int(2, 4), 5000.0);
    seg::segment(t, {500.0});  // mid-wire sites, so one buffer can suffice
    const noise::IncrementalNoise inc(t);
    const auto& b = kLib.at(lib::BufferId{10});  // buf_x24
    bool any = false;
    for (auto v : t.preorder()) {
      const auto& nd = t.node(v);
      if (nd.kind != rct::NodeKind::Internal || !nd.buffer_allowed) continue;
      rct::BufferAssignment a;
      a.place(v, lib::BufferId{10});
      const bool naive = noise::analyze(t, a, kLib).clean();
      EXPECT_EQ(inc.single_buffer_fixes(v, b.resistance, b.noise_margin),
                naive)
          << "trial " << trial << " node " << v;
      any |= naive;
    }
    fixable_nets += any ? 1 : 0;
  }
  // The check must be exercised in both directions across the workload.
  EXPECT_GT(fixable_nets, 0);
  EXPECT_LT(fixable_nets, 10);
}

// Differential stress: the incremental structure is rebuilt after random
// structural and electrical edits and must agree with full re-analysis at
// every node, on 100+ distinct perturbed trees. Guards against any cached
// quantity (currents, prefix resistances, Euler intervals, lifting tables)
// silently assuming the generator's pristine output.
TEST(Incremental, DifferentialAgainstFullRecomputeOnPerturbedTrees) {
  util::Rng rng(20260807);
  for (int trial = 0; trial < 120; ++trial) {
    auto t = random_net(rng, 0, 7000.0);
    const int edits = rng.uniform_int(1, 4);
    for (int e = 0; e < edits; ++e)
      (void)core::apply_perturbation(t, core::random_perturbation(rng, t));
    t.validate();

    const noise::IncrementalNoise inc(t);
    const auto slacks = noise::noise_slacks(t);
    const auto stages =
        rct::decompose(t, rct::BufferAssignment{}, lib::BufferLibrary{});
    ASSERT_EQ(stages.size(), 1u);
    const auto nz = noise::stage_noise(t, stages[0]);
    const auto cur = noise::stage_currents(t, stages[0]);
    for (auto id : t.preorder()) {
      ASSERT_NEAR(inc.noise(id), nz.at(id), 1e-12) << "trial " << trial;
      ASSERT_NEAR(inc.current(id), cur.at(id), 1e-15) << "trial " << trial;
      ASSERT_NEAR(inc.noise_slack(id), slacks.at(id), 1e-12)
          << "trial " << trial;
      // Upstream resistance against a naive parent-chain walk.
      double r = t.driver().resistance;
      for (rct::NodeId c = id; c != t.source(); c = t.node(c).parent)
        r += t.node(c).parent_wire.resistance;
      ASSERT_NEAR(inc.upstream_resistance(id), r, 1e-9)
          << "trial " << trial;
    }
    // Spot-check the LCA-based shared resistance on a random node pair.
    const auto order = t.preorder();
    const auto pick = [&] {
      return order[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(order.size()) - 1))];
    };
    const rct::NodeId a = pick(), b = pick();
    const rct::NodeId l = naive_lca(t, a, b);
    EXPECT_EQ(inc.lca(a, b), l) << "trial " << trial;
    double rc = t.driver().resistance;
    for (rct::NodeId c = l; c != t.source(); c = t.node(c).parent)
      rc += t.node(c).parent_wire.resistance;
    EXPECT_NEAR(inc.common_resistance(a, b), rc, 1e-9) << "trial " << trial;
  }
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
// sizing (the non-lazy fork/sort path), Lillis buffer costs, a finite slew
// limit, and DelayOpt without noise constraints.
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
      opt.buffer_costs.assign(kLib.size(), 1);
      for (std::size_t i = 0; i < opt.buffer_costs.size(); i += 2)
        opt.buffer_costs[i] = 2;
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
  auto t = random_net(rng, 0, 7000.0);
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
      (void)ctx.apply(core::random_perturbation(rng, ctx.tree()));
    const auto& fast = ctx.optimize();
    reused_total += ctx.stats().last_reused;
    const auto cold = core::optimize(ctx.tree(), kLib, opt);
    ASSERT_TRUE(core::same_solution(fast, cold))
        << "trial " << trial << " variant " << trial % 6;
    // With no edit in between, the whole answer comes from the memo —
    // including the source, the node whose own DP step leaves its child's
    // wire offset pending, to be flushed before it is stored.
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

TEST(Incremental, DecouplingNeverIncreasesNoise) {
  util::Rng rng(915);
  auto t = random_net(rng);
  const noise::IncrementalNoise inc(t);
  for (auto v : t.preorder()) {
    if (t.node(v).kind != rct::NodeKind::Internal) continue;
    for (const auto& s : t.sinks()) {
      bool inside = false;
      for (rct::NodeId c = s.node; c.valid(); c = t.node(c).parent)
        if (c == v) inside = true;
      if (inside) continue;
      EXPECT_LE(inc.noise_with_subtree_decoupled(s.node, v),
                inc.noise(s.node) + 1e-15);
    }
  }
}

}  // namespace
