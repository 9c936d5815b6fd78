// Fast-kernel pinning tests (PR 2).
//
//  * Differential: the fast kernel (sort-free pruning, lazy wire offsets,
//    read views, pooled lists) must produce bit-identical VgResults to the
//    reference (seed) kernel — same slack bits, same buffer placements,
//    same wire widths, same per_count table, same legacy DP counters —
//    across generated single- and multi-sink nets, with and without noise
//    constraints, wire sizing, buffer costs, and slew limits. The default
//    library mixes inverting and non-inverting types, so polarity buckets
//    are always exercised.
//  * Routing: the unpruned ablation (prune_candidates = false) runs the
//    reference kernel even when the fast one is selected.
//  * Property: with VgOptions::check_invariants the fast kernel re-verifies
//    after every DP step that each candidate list is sorted by (load asc,
//    slack desc), forms a strict Pareto staircase, and carries no dead
//    candidate; any violation throws and fails the test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
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
#include "util/units.hpp"

namespace {

using namespace nbuf;
using namespace nbuf::units;

const lib::BufferLibrary kLib = lib::default_library();

core::VgResult run_kernel(const rct::RoutingTree& segmented,
                          core::VgOptions opt, core::VgKernel kernel) {
  opt.kernel = kernel;
  return core::optimize(segmented, kLib, opt);
}

// Bit-identity comparison (sorted_entries/expect_identical) lives in
// common/vg_compare.hpp, shared with test_library_kernel.
using test::expect_identical;

// The six option variants cycled over the workload. Every variant keeps
// check_invariants on for the fast run, so the differential sweep doubles
// as the largest property-test corpus.
core::VgOptions variant(std::size_t which) {
  core::VgOptions opt;
  opt.check_invariants = true;
  switch (which % 6) {
    case 0:  // BuffOpt shape: noise-constrained, best slack
      break;
    case 1:  // DelayOpt baseline
      opt.noise_constraints = false;
      break;
    case 2:  // Problem 3 objective
      opt.objective = core::VgObjective::MinBuffersMeetingConstraints;
      break;
    case 3:  // simultaneous wire sizing (the sorting fork path)
      opt.wire_widths = lib::default_wire_widths();
      break;
    case 4:  // Lillis buffer costs: bucket index = total cost
      opt.buffer_costs.assign(kLib.size(), 1);
      for (std::size_t i = 0; i < opt.buffer_costs.size(); i += 2)
        opt.buffer_costs[i] = 2;
      break;
    case 5:  // slew-limited, delay-only
      opt.noise_constraints = false;
      opt.max_slew = 150.0 * ps;
      break;
  }
  return opt;
}

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
    check_net(nets[i].tree, variant(i));
  }
  EXPECT_GT(multi, 50u);  // the workload genuinely exercises merges
}

TEST(VgKernel, DifferentialBitIdenticalOnSingleSinkChains) {
  // Long two-pin chains are the deepest lazy-offset/insertion pipelines:
  // one candidate-list flush per 500 µm site.
  util::Rng rng(90210);
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto net = test::long_two_pin(rng.uniform(3000.0, 20000.0),
                                        rng.uniform(60.0, 380.0));
    check_net(net, variant(static_cast<std::size_t>(trial)));
  }
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
  EXPECT_EQ(fast.stats.prune_sorts_skipped, fast.stats.prune_calls);
  EXPECT_GT(fast.stats.offset_flushes, 0u);
  EXPECT_GT(fast.stats.snapshot_cands_avoided, 0u);

  const auto ref = run_kernel(segmented, opt, core::VgKernel::Reference);
  EXPECT_GT(ref.stats.prune_calls, 0u);
  EXPECT_EQ(ref.stats.prune_sorts, ref.stats.prune_calls);
  EXPECT_EQ(ref.stats.prune_sorts_skipped, 0u);
  EXPECT_EQ(ref.stats.offset_flushes, 0u);
  EXPECT_EQ(ref.stats.snapshot_cands_avoided, 0u);

  // Wire sizing is the one path where the fast kernel still sorts.
  core::VgOptions sizing;
  sizing.wire_widths = lib::default_wire_widths();
  const auto sized = run_kernel(segmented, sizing, core::VgKernel::Fast);
  EXPECT_GT(sized.stats.prune_sorts, 0u);

  // Merge-heavy trees recycle candidate-list buffers through the pool (a
  // pure chain never returns a buffer, so this needs real branching), and
  // the cascaded run merge keeps even those nets sort-free.
  auto branchy = steiner::make_balanced_tree(4, 900.0, test::default_driver(),
                                             test::default_sink(),
                                             lib::default_technology());
  seg::segment(branchy, {500.0});
  const auto merged = run_kernel(branchy, opt, core::VgKernel::Fast);
  EXPECT_GT(merged.stats.merged, 0u);
  EXPECT_GT(merged.stats.pool_reuses, 0u);
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
    core::VgOptions opt = variant(which);
    opt.prune_candidates = false;
    opt.max_buffers = 8;
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

  core::detail::CandList good;
  good.push_back({1.0, 2.0, 0.0, 0.5, 0.0, nullptr});
  good.push_back({2.0, 3.0, 0.0, 0.6, 0.0, nullptr});
  EXPECT_NO_THROW(core::detail::verify_cand_list(good, opt));

  // Lost (load asc, slack desc) sort order.
  core::detail::CandList unsorted = good;
  std::swap(unsorted[0], unsorted[1]);
  EXPECT_THROW(core::detail::verify_cand_list(unsorted, opt),
               std::logic_error);

  // Sorted, but a dominated survivor: load rises while slack falls, so the
  // strict Pareto staircase is broken.
  core::detail::CandList dominated = good;
  dominated[1].slack = 1.0;
  EXPECT_THROW(core::detail::verify_cand_list(dominated, opt),
               std::logic_error);
  // ...unless dominance pruning was disabled (ablation mode).
  core::VgOptions unpruned = opt;
  unpruned.prune_candidates = false;
  EXPECT_NO_THROW(core::detail::verify_cand_list(dominated, unpruned));

  // A dead candidate (negative noise slack) under noise constraints.
  core::detail::CandList dead = good;
  dead[1].noise_slack = -0.1;
  EXPECT_THROW(core::detail::verify_cand_list(dead, opt), std::logic_error);
  // ...which is legal in DelayOpt mode (noise ignored).
  core::VgOptions delayopt = opt;
  delayopt.noise_constraints = false;
  EXPECT_NO_THROW(core::detail::verify_cand_list(dead, delayopt));
}

}  // namespace
