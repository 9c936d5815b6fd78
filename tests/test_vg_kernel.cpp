// Fast-kernel pinning tests (PR 2).
//
//  * Differential: the fast kernel (sort-free pruning, read views) must
//    produce bit-identical VgResults to the reference (seed)
//    kernel — same slack bits, same buffer placements, same wire widths,
//    same per_count table, same legacy DP counters —
//    across generated single- and multi-sink nets, with and without noise
//    constraints, wire sizing, a binding count cap, and slew limits. The
//    default library mixes inverting and non-inverting types, so polarity
//    buckets are always exercised.
//  * Routing: the unpruned ablation (prune_candidates = false) runs the
//    reference kernel even when the fast one is selected.
//  * Property: with VgOptions::check_invariants the fast kernel re-verifies
//    after every DP step that each candidate list is sorted by (load asc,
//    slack desc), forms a strict Pareto staircase, and carries no dead
//    candidate; any violation throws and fails the test.
//  * Plan arena: one-sided merges allocate nothing, collect walks shared
//    prefixes, and plan_compare orders by content in its documented order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/test_nets.hpp"
#include "common/vg_compare.hpp"
#include "core/vanginneken.hpp"
#include "core/vg_kernel.hpp"
#include "lib/wire.hpp"
#include "netgen/netgen.hpp"
#include "seg/segment.hpp"
#include "steiner/builders.hpp"
#include "util/rng.hpp"

namespace {

using namespace nbuf;

const lib::BufferLibrary kLib = lib::default_library();

core::VgResult run_kernel(const rct::RoutingTree& segmented,
                          core::VgOptions opt, core::VgKernel kernel) {
  opt.kernel = kernel;
  return core::optimize(segmented, kLib, opt);
}

// Bit-identity comparison (sorted_entries/expect_identical) lives in
// common/vg_compare.hpp, shared with test_library_kernel.
using test::expect_identical;

void check_net(const rct::RoutingTree& net, const core::VgOptions& opt) {
  rct::RoutingTree segmented = net;
  seg::segment(segmented, {500.0});
  const auto fast = run_kernel(segmented, opt, core::VgKernel::Fast);
  const auto ref = run_kernel(segmented, opt, core::VgKernel::Reference);
  expect_identical(fast, ref);
}

TEST(VgKernel, DifferentialBitIdenticalOnGeneratedMultiSinkNets) {
  // >= 200 generated nets through the full option cycle. The testbench
  // mirrors the paper's workload: mostly few-sink nets with a tail to ~20
  // sinks, millimeter spans, noise margins on every pin.
  netgen::TestbenchOptions gen;
  gen.net_count = 204;
  gen.seed = 77031;
  const auto nets = netgen::generate_testbench(kLib, gen);
  ASSERT_EQ(nets.size(), 204u);
  std::size_t multi = 0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    SCOPED_TRACE(nets[i].name + " variant " + std::to_string(i % 6));
    if (nets[i].sink_count > 1) ++multi;
    check_net(nets[i].tree, test::kernel_variant(i));
  }
  EXPECT_GT(multi, 50u);  // the workload genuinely exercises merges
}

TEST(VgKernel, DifferentialBitIdenticalOnSingleSinkChains) {
  // Long two-pin chains are the deepest wire/insertion pipelines: one
  // wire extension and one buffer insertion per 500 µm site.
  util::Rng rng(90210);
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto net = test::long_two_pin(rng.uniform(3000.0, 20000.0),
                                        rng.uniform(60.0, 380.0));
    check_net(net, test::kernel_variant(static_cast<std::size_t>(trial)));
  }
}

// core::optimize clamps max_buffers to the tree's buffer sites. No bucket
// above the clamp can fill, so the clamped run must equal the fast kernel
// run over every bucket the options ask for: same answer, same per_count
// table, same counters.
TEST(VgKernel, SiteClampIsExact) {
  util::Rng rng(4242);
  std::size_t binding = 0;
  for (std::size_t trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    rct::RoutingTree net =
        trial % 2 == 0
            ? test::long_two_pin(rng.uniform(3000.0, 15000.0),
                                 rng.uniform(60.0, 380.0))
            : steiner::make_balanced_tree(
                  2 + static_cast<int>(trial % 3), rng.uniform(600.0, 2500.0),
                  test::default_driver(), test::default_sink(),
                  lib::default_technology());
    net.binarize();
    seg::segment(net, {1200.0});
    const core::VgOptions opt = test::kernel_variant(trial);
    if (core::detail::clamped_to_sites(net, opt).max_buffers < opt.max_buffers)
      ++binding;
    core::PlanArena arena;
    const auto all_buckets =
        core::detail::run_fast_kernel(net, kLib, opt, arena);
    const auto clamped = run_kernel(net, opt, core::VgKernel::Fast);
    expect_identical(clamped, all_buckets);
    EXPECT_TRUE(clamped.stats.same_counters(all_buckets.stats));
  }
  EXPECT_GE(binding, 12u);  // the clamp genuinely bound
}

TEST(VgKernel, InvariantCheckedOnPaperExample) {
  // The worked Fig. 3 net with invariant checking on; also pins the known
  // qualitative outcome so the assertions run on a meaningful DP.
  auto net = test::fig3_net().tree;
  core::VgOptions opt;
  opt.check_invariants = true;
  rct::RoutingTree segmented = net;
  seg::segment(segmented, {500.0});
  const auto fast = run_kernel(segmented, opt, core::VgKernel::Fast);
  const auto ref = run_kernel(segmented, opt, core::VgKernel::Reference);
  expect_identical(fast, ref);
  EXPECT_TRUE(fast.feasible);
}

TEST(VgKernel, FastKernelCountersReportSortFreeOperation) {
  const auto net = test::long_two_pin(12000.0);
  rct::RoutingTree segmented = net;
  seg::segment(segmented, {500.0});

  core::VgOptions opt;  // unsized: no sort should ever run
  const auto fast = run_kernel(segmented, opt, core::VgKernel::Fast);
  EXPECT_GT(fast.stats.prune_calls, 0u);
  EXPECT_EQ(fast.stats.prune_sorts, 0u);
  EXPECT_GT(fast.stats.bp_prune_calls, 0u);

  const auto ref = run_kernel(segmented, opt, core::VgKernel::Reference);
  EXPECT_GT(ref.stats.prune_calls, 0u);
  EXPECT_EQ(ref.stats.prune_sorts, ref.stats.prune_calls);

  // Wire sizing is the one path where the fast kernel still sorts.
  core::VgOptions sizing;
  sizing.wire_widths = lib::default_wire_widths();
  const auto sized = run_kernel(segmented, sizing, core::VgKernel::Fast);
  EXPECT_GT(sized.stats.prune_sorts, 0u);

  // The cascaded run merge keeps merge-heavy trees (real branching, not a
  // pure chain) sort-free.
  auto branchy = steiner::make_balanced_tree(4, 900.0, test::default_driver(),
                                             test::default_sink(),
                                             lib::default_technology());
  seg::segment(branchy, {500.0});
  const auto merged = run_kernel(branchy, opt, core::VgKernel::Fast);
  EXPECT_GT(merged.stats.merged, 0u);
  EXPECT_EQ(merged.stats.prune_sorts, 0u);
}

TEST(VgKernel, UnprunedAblationRunsTheReferenceKernel) {
  // prune_candidates = false is served by the reference kernel whatever
  // VgOptions::kernel says, so the two selections agree byte for byte,
  // counters included (the reference kernel's counter profile: every
  // prune sorts).
  // Every variant but wire sizing, whose per-wire forks grow unpruned
  // lists exponentially.
  util::Rng rng(4417);
  for (const std::size_t which : {0, 1, 2, 4, 5}) {
    SCOPED_TRACE("variant " + std::to_string(which));
    rct::RoutingTree segmented = test::long_two_pin(
        rng.uniform(3000.0, 12000.0), rng.uniform(60.0, 380.0));
    seg::segment(segmented, {500.0});
    core::VgOptions opt = test::kernel_variant(which);
    opt.prune_candidates = false;
    opt.max_buffers = std::min<std::size_t>(opt.max_buffers, 8);
    const auto fast = run_kernel(segmented, opt, core::VgKernel::Fast);
    const auto ref = run_kernel(segmented, opt, core::VgKernel::Reference);
    EXPECT_EQ(test::serialize(fast), test::serialize(ref));
    EXPECT_TRUE(fast.stats.same_counters(ref.stats));
    EXPECT_EQ(fast.stats.prune_sorts, fast.stats.prune_calls);
  }
}

TEST(VgKernel, CorruptedCandidateListIsCaughtByPromotedChecks) {
  // detail::verify_cand_list is the structural check both kernels run after
  // each DP step (at contract level 2 or with check_invariants); feed it
  // deliberately corrupted lists and expect each corruption to be named.
  core::VgOptions opt;  // noise constraints and pruning default on
  const core::PlanArena arena;

  core::detail::CandList good;
  good.push_back({1.0, 2.0, 0.0, 0.5, 0.0, core::kNullPlan});
  good.push_back({2.0, 3.0, 0.0, 0.6, 0.0, core::kNullPlan});
  EXPECT_NO_THROW(core::detail::verify_cand_list(good, opt, arena));

  // Lost (load asc, slack desc) sort order.
  core::detail::CandList unsorted = good;
  std::swap(unsorted[0], unsorted[1]);
  EXPECT_THROW(core::detail::verify_cand_list(unsorted, opt, arena),
               std::logic_error);

  // Sorted, but a dominated survivor: load rises while slack falls, so the
  // strict Pareto staircase is broken.
  core::detail::CandList dominated = good;
  dominated[1].slack = 1.0;
  EXPECT_THROW(core::detail::verify_cand_list(dominated, opt, arena),
               std::logic_error);
  // ...unless dominance pruning was disabled (ablation mode).
  core::VgOptions unpruned = opt;
  unpruned.prune_candidates = false;
  EXPECT_NO_THROW(core::detail::verify_cand_list(dominated, unpruned, arena));

  // A dead candidate (negative noise slack) under noise constraints.
  core::detail::CandList dead = good;
  dead[1].noise_slack = -0.1;
  EXPECT_THROW(core::detail::verify_cand_list(dead, opt, arena),
               std::logic_error);
  // ...which is legal in DelayOpt mode (noise ignored).
  core::VgOptions delayopt = opt;
  delayopt.noise_constraints = false;
  EXPECT_NO_THROW(core::detail::verify_cand_list(dead, delayopt, arena));
}

// Plan arena: the shared-cell solution store under every DP and noise
// climb (paper footnote 7), addressed only by PlanRef.

core::PlannedBuffer placement(std::uint32_t node, double dist,
                              std::uint32_t type) {
  return {rct::NodeId{node}, dist, lib::BufferId{type}};
}

core::PlannedWire wire_choice(std::uint32_t node, std::size_t width) {
  return {rct::NodeId{node}, width};
}

// (node, dist, type) triples of a placement list, sorted for comparison.
std::vector<std::tuple<std::uint32_t, double, std::uint32_t>> triples(
    const std::vector<core::PlannedBuffer>& plan) {
  std::vector<std::tuple<std::uint32_t, double, std::uint32_t>> out;
  for (const core::PlannedBuffer& p : plan)
    out.emplace_back(p.node.value(), p.dist_above, p.type.value());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PlanArena, OneSidedMergeReturnsTheOtherRefAndAllocatesNothing) {
  core::PlanArena arena;
  const core::PlanRef r = arena.buffer(core::kNullPlan, placement(3, 0.0, 1));
  ASSERT_EQ(arena.cell_count(), 1u);
  EXPECT_EQ(arena.merge(core::kNullPlan, r), r);
  EXPECT_EQ(arena.merge(r, core::kNullPlan), r);
  EXPECT_EQ(arena.merge(core::kNullPlan, core::kNullPlan), core::kNullPlan);
  EXPECT_EQ(arena.cell_count(), 1u);
  const core::PlanRef m = arena.merge(r, r);
  EXPECT_NE(m, r);
  EXPECT_EQ(arena.cell_count(), 2u);
}

TEST(PlanArena, CollectReturnsEveryPlacementAndWireOfASharedPrefixDag) {
  core::PlanArena arena;
  // Shared prefix: two placements and one wire choice on one subtree.
  core::PlanRef prefix = arena.buffer(core::kNullPlan, placement(1, 0.0, 0));
  prefix = arena.wire(prefix, wire_choice(2, 3));
  prefix = arena.buffer(prefix, placement(4, 12.5, 1));
  // Two candidates extend it; a disjoint branch merges into the first.
  const core::PlanRef ext_a = arena.buffer(prefix, placement(5, 0.0, 2));
  const core::PlanRef ext_b = arena.wire(prefix, wire_choice(6, 1));
  core::PlanRef other = arena.wire(core::kNullPlan, wire_choice(8, 2));
  other = arena.buffer(other, placement(9, 3.0, 0));
  const core::PlanRef joined = arena.merge(ext_a, other);

  EXPECT_TRUE(core::collect(arena, core::kNullPlan).empty());
  EXPECT_TRUE(core::collect_wires(arena, core::kNullPlan).empty());

  using T = std::tuple<std::uint32_t, double, std::uint32_t>;
  EXPECT_EQ(triples(core::collect(arena, ext_a)),
            (std::vector<T>{{1, 0.0, 0}, {4, 12.5, 1}, {5, 0.0, 2}}));
  EXPECT_EQ(triples(core::collect(arena, ext_b)),
            (std::vector<T>{{1, 0.0, 0}, {4, 12.5, 1}}));
  EXPECT_EQ(triples(core::collect(arena, joined)),
            (std::vector<T>{{1, 0.0, 0}, {4, 12.5, 1}, {5, 0.0, 2},
                            {9, 3.0, 0}}));

  const auto wires = [&](core::PlanRef plan) {
    std::vector<std::pair<std::uint32_t, std::size_t>> out;
    for (const core::PlannedWire& w : core::collect_wires(arena, plan))
      out.emplace_back(w.node.value(), w.width);
    std::sort(out.begin(), out.end());
    return out;
  };
  using W = std::pair<std::uint32_t, std::size_t>;
  EXPECT_EQ(wires(ext_a), (std::vector<W>{{2, 3}}));
  EXPECT_EQ(wires(ext_b), (std::vector<W>{{2, 3}, {6, 1}}));
  EXPECT_EQ(wires(joined), (std::vector<W>{{2, 3}, {8, 2}}));
}

// Builds buffer(1) -> wire(2) -> merge(that, buffer(7)) at the arena's
// current end.
core::PlanRef sample_plan(core::PlanArena& arena) {
  core::PlanRef left = arena.buffer(core::kNullPlan, placement(1, 2.0, 0));
  left = arena.wire(left, wire_choice(2, 1));
  const core::PlanRef right =
      arena.buffer(core::kNullPlan, placement(7, 0.0, 1));
  return arena.merge(left, right);
}

TEST(PlanArena, EqualContentAtDifferentPositionsComparesEqual) {
  core::PlanArena arena;
  const core::PlanRef first = sample_plan(arena);
  for (std::uint32_t i = 0; i < 5; ++i)  // unrelated cells in between
    arena.buffer(core::kNullPlan, placement(100 + i, 0.0, 0));
  const core::PlanRef second = sample_plan(arena);
  ASSERT_NE(first, second);
  EXPECT_EQ(core::detail::plan_compare(arena, first, second), 0);
  EXPECT_EQ(core::detail::plan_compare(arena, second, first), 0);
  EXPECT_EQ(core::detail::plan_compare(arena, first, first), 0);
}

TEST(PlanArena, PlanCompareFollowsTheDocumentedOrder) {
  core::PlanArena arena;
  const core::PlanRef null = core::kNullPlan;
  // Each pair is (smaller, larger) in plan_compare order.
  std::vector<std::pair<std::string, std::pair<core::PlanRef, core::PlanRef>>>
      cases;
  const core::PlanRef b1 = arena.buffer(null, placement(1, 0.0, 0));
  const core::PlanRef b2 = arena.buffer(null, placement(2, 0.0, 0));
  // The empty solution orders first.
  cases.push_back({"empty", {null, b1}});
  // Kind first: Buffer < Wire < Merge, whatever the payload.
  const core::PlanRef w0 = arena.wire(null, wire_choice(0, 0));
  cases.push_back({"kind buffer<wire", {arena.buffer(null, placement(9, 0, 3)),
                                        w0}});
  cases.push_back({"kind wire<merge", {arena.wire(null, wire_choice(9, 9)),
                                       arena.merge(b1, b1)}});
  // Buffer payload: node, then dist_above, then type.
  cases.push_back({"node", {arena.buffer(null, placement(1, 50.0, 5)),
                            arena.buffer(null, placement(2, 0.0, 0))}});
  cases.push_back({"dist_above", {arena.buffer(null, placement(3, 1.0, 5)),
                                  arena.buffer(null, placement(3, 2.0, 0))}});
  cases.push_back({"type", {arena.buffer(null, placement(3, 1.0, 0)),
                            arena.buffer(null, placement(3, 1.0, 1))}});
  // Wire payload: node, then width.
  cases.push_back({"wire node", {arena.wire(null, wire_choice(1, 7)),
                                 arena.wire(null, wire_choice(2, 0))}});
  cases.push_back({"width", {arena.wire(null, wire_choice(4, 1)),
                             arena.wire(null, wire_choice(4, 2))}});
  // Equal payload: the predecessor decides.
  cases.push_back({"predecessor", {arena.buffer(b1, placement(5, 0.0, 0)),
                                   arena.buffer(b2, placement(5, 0.0, 0))}});
  // Merge: the right branch decides before the left one.
  cases.push_back({"merge right first", {arena.merge(b2, b1),
                                         arena.merge(b1, b2)}});
  cases.push_back({"merge left", {arena.merge(b1, b2), arena.merge(b2, b2)}});
  for (const auto& [what, pair] : cases) {
    SCOPED_TRACE(what);
    EXPECT_EQ(core::detail::plan_compare(arena, pair.first, pair.second), -1);
    EXPECT_EQ(core::detail::plan_compare(arena, pair.second, pair.first), 1);
  }
}

}  // namespace
