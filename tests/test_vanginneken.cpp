#include <gtest/gtest.h>

#include <functional>

#include "common/test_nets.hpp"
#include "core/tool.hpp"
#include "core/vanginneken.hpp"
#include "elmore/elmore.hpp"
#include "noise/devgan.hpp"
#include "seg/segment.hpp"

namespace {

using namespace nbuf;
using namespace nbuf::units;
using test::default_driver;
using test::default_sink;

const lib::BufferLibrary kLib = lib::default_library();
const lib::BufferLibrary kOne = lib::single_buffer_library();

// Exhaustive optimum: tries every assignment of {none} ∪ lib over the
// buffer-allowed internal nodes and returns the best worst-slack (with or
// without requiring metric-clean noise).
double brute_force_best_slack(const rct::RoutingTree& tree,
                              const lib::BufferLibrary& l,
                              bool require_noise_clean) {
  std::vector<rct::NodeId> sites;
  for (auto id : tree.preorder()) {
    const auto& n = tree.node(id);
    if (n.kind == rct::NodeKind::Internal && n.buffer_allowed)
      sites.push_back(id);
  }
  double best = -std::numeric_limits<double>::infinity();
  rct::BufferAssignment a;
  std::function<void(std::size_t)> rec = [&](std::size_t i) {
    if (i == sites.size()) {
      if (require_noise_clean && !noise::analyze(tree, a, l).clean()) return;
      best = std::max(best, elmore::analyze(tree, a, l).worst_slack);
      return;
    }
    rec(i + 1);
    for (auto bid : l.ids()) {
      if (l.at(bid).inverting) continue;  // keep polarity trivially legal
      a.place(sites[i], bid);
      rec(i + 1);
      a.remove(sites[i]);
    }
  };
  rec(0);
  return best;
}

rct::RoutingTree segmented_two_pin(double len, double seg_len,
                                   double rat = 2 * ns) {
  auto t = steiner::make_two_pin(len, default_driver(150.0, 30 * ps),
                                 default_sink(15 * fF, rat),
                                 lib::default_technology());
  seg::segment(t, {seg_len});
  return t;
}

// --- optimality against brute force -------------------------------------------

TEST(VanGinneken, DelayOptMatchesBruteForceSingleType) {
  for (double len : {2000.0, 4000.0, 6000.0}) {
    auto t = segmented_two_pin(len, len / 6.0);  // 5 interior sites
    core::VgOptions opt;
    opt.noise_constraints = false;
    opt.max_buffers = 8;
    const auto res = core::optimize(t, kOne, opt);
    const double brute = brute_force_best_slack(t, kOne, false);
    EXPECT_NEAR(res.slack, brute, std::abs(brute) * 1e-9) << len;
  }
}

TEST(VanGinneken, DelayOptMatchesBruteForceTwoTypes) {
  lib::BufferLibrary two;
  two.add({"weak", 550.0, 7 * fF, 32 * ps, 0.8, false});
  two.add({"strong", 140.0, 28 * fF, 28 * ps, 0.8, false});
  auto t = segmented_two_pin(5000.0, 1250.0);  // 3 interior sites
  core::VgOptions opt;
  opt.noise_constraints = false;
  const auto res = core::optimize(t, two, opt);
  const double brute = brute_force_best_slack(t, two, false);
  EXPECT_NEAR(res.slack, brute, std::abs(brute) * 1e-9);
}

TEST(VanGinneken, BuffOptMatchesNoiseConstrainedBruteForce) {
  auto t = segmented_two_pin(5000.0, 1000.0);  // violates noise unbuffered
  core::VgOptions opt;
  opt.noise_constraints = true;
  const auto res = core::optimize(t, kOne, opt);
  const double brute = brute_force_best_slack(t, kOne, true);
  ASSERT_TRUE(res.feasible);
  EXPECT_NEAR(res.slack, brute, std::abs(brute) * 1e-9);
}

TEST(VanGinneken, BruteForceOnMultiSinkTree) {
  auto t = steiner::make_balanced_tree(2, 1200.0, default_driver(),
                                       default_sink(15 * fF, 2 * ns),
                                       lib::default_technology());
  seg::segment(t, {600.0});
  core::VgOptions opt;
  opt.noise_constraints = false;
  const auto res = core::optimize(t, kOne, opt);
  const double brute = brute_force_best_slack(t, kOne, false);
  EXPECT_NEAR(res.slack, brute, std::abs(brute) * 1e-9);
}

// --- self-consistency -----------------------------------------------------------

TEST(VanGinneken, PredictedSlackMatchesElmoreEvaluation) {
  for (double len : {3000.0, 8000.0, 12000.0}) {
    auto t = segmented_two_pin(len, 500.0);
    for (bool noise_mode : {false, true}) {
      core::VgOptions opt;
      opt.noise_constraints = noise_mode;
      const auto res = core::optimize(t, kLib, opt);
      const auto timing = elmore::analyze(t, res.buffers, kLib);
      EXPECT_NEAR(res.slack, timing.worst_slack,
                  1e-13)
          << len << " noise=" << noise_mode;
    }
  }
}

TEST(VanGinneken, PerCountPlansAreConsistent) {
  auto t = segmented_two_pin(9000.0, 500.0);
  core::VgOptions opt;
  opt.noise_constraints = false;
  opt.max_buffers = 6;
  const auto res = core::optimize(t, kLib, opt);
  ASSERT_GE(res.per_count.size(), 3u);
  for (const auto& cb : res.per_count) {
    const auto a = core::assignment_for(cb.plan);
    EXPECT_EQ(a.size(), cb.count);
    const auto timing = elmore::analyze(t, a, kLib);
    EXPECT_NEAR(cb.slack, timing.worst_slack,
                1e-13);
  }
}

TEST(VanGinneken, NoiseSlackPredictionMatchesAnalyzer) {
  auto t = segmented_two_pin(6000.0, 500.0);
  core::VgOptions opt;
  opt.noise_constraints = true;
  const auto res = core::optimize(t, kLib, opt);
  ASSERT_TRUE(res.feasible);
  const auto rep = noise::analyze(t, res.buffers, kLib);
  EXPECT_EQ(rep.violation_count, 0u);
}

// --- noise behaviour -------------------------------------------------------------

TEST(VanGinneken, BuffOptNeverViolatesNoise) {
  for (double len : {4000.0, 8000.0, 12000.0, 16000.0}) {
    auto t = segmented_two_pin(len, 500.0);
    core::VgOptions opt;
    opt.noise_constraints = true;
    const auto res = core::optimize(t, kLib, opt);
    ASSERT_TRUE(res.feasible) << len;
    EXPECT_TRUE(noise::analyze(t, res.buffers, kLib).clean()) << len;
  }
}

TEST(VanGinneken, DelayOptCanViolateNoiseWhereBuffOptDoesNot) {
  // Theorem 2 in practice: delay-optimal buffering of a long net with a
  // strong driver leaves long unshielded stretches.
  auto t = segmented_two_pin(9000.0, 750.0);
  core::VgOptions delay, noise_opt;
  delay.noise_constraints = false;
  delay.max_buffers = 1;  // DelayOpt(1)
  noise_opt.noise_constraints = true;
  const auto rd = core::optimize(t, kLib, delay);
  const auto rn = core::optimize(t, kLib, noise_opt);
  EXPECT_FALSE(noise::analyze(t, rd.buffers, kLib).clean());
  EXPECT_TRUE(noise::analyze(t, rn.buffers, kLib).clean());
}

TEST(VanGinneken, NoisePenaltyIsSmall) {
  // Slack given noise constraints is within a few percent of unconstrained
  // slack (the paper's <2% claim, loosely checked per net).
  auto t = segmented_two_pin(10000.0, 400.0);
  core::VgOptions delay, noise_opt;
  delay.noise_constraints = false;
  noise_opt.noise_constraints = true;
  const auto rd = core::optimize(t, kLib, delay);
  const auto rn = core::optimize(t, kLib, noise_opt);
  const auto td = elmore::analyze(t, rd.buffers, kLib);
  const auto tn = elmore::analyze(t, rn.buffers, kLib);
  // Compare total delays: penalty below 10% on any single net.
  EXPECT_LT(tn.max_delay, td.max_delay * 1.10);
}

TEST(VanGinneken, NoisePruningShrinksSearch) {
  auto t = segmented_two_pin(12000.0, 400.0);
  core::VgOptions delay, noise_opt;
  delay.noise_constraints = false;
  noise_opt.noise_constraints = true;
  const auto rd = core::optimize(t, kLib, delay);
  const auto rn = core::optimize(t, kLib, noise_opt);
  EXPECT_GT(rn.stats.pruned_infeasible, 0u);
  EXPECT_LE(rn.stats.candidates_generated, rd.stats.candidates_generated);
}

// --- buffer-count extension (Lillis / Problem 3) -----------------------------------

TEST(VanGinneken, MaxBuffersCapIsRespected) {
  for (std::size_t cap : {1u, 2u, 3u}) {
    auto t = segmented_two_pin(10000.0, 500.0);
    core::VgOptions opt;
    opt.noise_constraints = false;
    opt.max_buffers = cap;
    const auto res = core::optimize(t, kLib, opt);
    EXPECT_LE(res.buffer_count, cap);
    for (const auto& cb : res.per_count) EXPECT_LE(cb.count, cap);
  }
}

TEST(VanGinneken, MoreBuffersAllowedNeverHurts) {
  auto t = segmented_two_pin(12000.0, 500.0);
  double prev = -std::numeric_limits<double>::infinity();
  for (std::size_t cap : {1u, 2u, 4u, 8u}) {
    core::VgOptions opt;
    opt.noise_constraints = false;
    opt.max_buffers = cap;
    const auto res = core::optimize(t, kLib, opt);
    EXPECT_GE(res.slack, prev - 1e-15);
    prev = res.slack;
  }
}

TEST(VanGinneken, MinBuffersObjectivePicksFewest) {
  // Generous RAT: zero buffers already meet timing on a short net, but the
  // net violates noise, so the minimum noise-fixing count is chosen.
  auto t = segmented_two_pin(5000.0, 250.0, /*rat=*/50 * ns);
  core::VgOptions opt;
  opt.noise_constraints = true;
  opt.objective = core::VgObjective::MinBuffersMeetingConstraints;
  const auto res = core::optimize(t, kLib, opt);
  ASSERT_TRUE(res.feasible);
  EXPECT_TRUE(res.timing_met);
  // A 5 mm net needs exactly one buffer for noise in this technology.
  EXPECT_EQ(res.buffer_count, 1u);
  // MaxSlack on the same net uses at least as many buffers.
  opt.objective = core::VgObjective::MaxSlack;
  const auto res2 = core::optimize(t, kLib, opt);
  EXPECT_GE(res2.buffer_count, res.buffer_count);
}

// --- polarity --------------------------------------------------------------------

TEST(VanGinneken, InvertedSinkGetsOddInverterChain) {
  auto t = steiner::make_two_pin(8000.0, default_driver(150.0, 30 * ps),
                                 default_sink(15 * fF, 2 * ns),
                                 lib::default_technology());
  {
    auto info = t.sinks().front();
    info.require_inverted = true;
    t.set_sink_info(rct::SinkId{0}, info);
  }
  seg::segment(t, {500.0});
  core::VgOptions opt;
  opt.noise_constraints = true;
  const auto res = core::optimize(t, kLib, opt);
  ASSERT_TRUE(res.feasible);
  EXPECT_TRUE(
      res.buffers.inverted_at(t, kLib, t.sinks().front().node));
}

TEST(VanGinneken, PositiveSinkKeepsEvenInverterChain) {
  auto t = segmented_two_pin(8000.0, 500.0);
  core::VgOptions opt;
  const auto res = core::optimize(t, kLib, opt);
  ASSERT_TRUE(res.feasible);
  EXPECT_FALSE(
      res.buffers.inverted_at(t, kLib, t.sinks().front().node));
}

TEST(VanGinneken, InvertedSinkInfeasibleWithoutInverters) {
  auto t = steiner::make_two_pin(3000.0, default_driver(),
                                 default_sink(15 * fF, 2 * ns),
                                 lib::default_technology());
  {
    auto info = t.sinks().front();
    info.require_inverted = true;
    t.set_sink_info(rct::SinkId{0}, info);
  }
  seg::segment(t, {500.0});
  const auto res = core::optimize(t, kOne, core::VgOptions{});
  EXPECT_FALSE(res.feasible);
}

TEST(VanGinneken, MixedPolaritySinks) {
  const auto tech = lib::default_technology();
  rct::RoutingTree t;
  const auto so = t.make_source(default_driver(150.0, 30 * ps));
  auto wire_of = [&](double len) {
    return rct::Wire{len, tech.wire_res(len), tech.wire_cap(len),
                     tech.wire_coupling_current(len)};
  };
  const auto mid = t.add_internal(so, wire_of(1500.0), "stem");
  auto pos = default_sink(10 * fF, 2 * ns, 0.8, "pos");
  auto neg = default_sink(10 * fF, 2 * ns, 0.8, "neg");
  neg.require_inverted = true;
  t.add_sink(mid, wire_of(2000.0), pos);
  t.add_sink(mid, wire_of(2000.0), neg);
  seg::segment(t, {500.0});
  const auto res = core::optimize(t, kLib, core::VgOptions{});
  ASSERT_TRUE(res.feasible);
  EXPECT_FALSE(res.buffers.inverted_at(t, kLib, t.sinks()[0].node));
  EXPECT_TRUE(res.buffers.inverted_at(t, kLib, t.sinks()[1].node));
}

// --- polarity-aware optimality ------------------------------------------------------

TEST(VanGinneken, PolarityBruteForceWithInverters) {
  // Exhaustive optimum over {none, inv, buf} per site with the polarity
  // legality rule (every sink's path parity must match its requirement).
  lib::BufferLibrary two;
  two.add({"inv", 300.0, 12 * fF, 15 * ps, 0.8, true});
  two.add({"buf", 280.0, 14 * fF, 30 * ps, 0.8, false});
  auto t = steiner::make_two_pin(5000.0, default_driver(150.0, 30 * ps),
                                 default_sink(15 * fF, 2 * ns),
                                 lib::default_technology());
  {
    auto info = t.sinks().front();
    info.require_inverted = true;
    t.set_sink_info(rct::SinkId{0}, info);
  }
  seg::segment(t, {1250.0});  // 3 interior sites
  std::vector<rct::NodeId> sites;
  for (auto id : t.preorder())
    if (t.node(id).kind == rct::NodeKind::Internal &&
        t.node(id).buffer_allowed)
      sites.push_back(id);
  double best = -std::numeric_limits<double>::infinity();
  rct::BufferAssignment a;
  std::function<void(std::size_t)> rec = [&](std::size_t i) {
    if (i == sites.size()) {
      if (a.inverted_at(t, two, t.sinks().front().node) !=
          t.sinks().front().require_inverted)
        return;  // polarity-illegal
      best = std::max(best, elmore::analyze(t, a, two).worst_slack);
      return;
    }
    rec(i + 1);
    for (auto bid : two.ids()) {
      a.place(sites[i], bid);
      rec(i + 1);
      a.remove(sites[i]);
    }
  };
  rec(0);
  ASSERT_GT(best, -std::numeric_limits<double>::infinity());

  core::VgOptions opt;
  opt.noise_constraints = false;
  const auto res = core::optimize(t, two, opt);
  ASSERT_TRUE(res.feasible);
  EXPECT_NEAR(res.slack, best, std::abs(best) * 1e-9);
  EXPECT_TRUE(res.buffers.inverted_at(t, two, t.sinks().front().node));
}

// --- guards ---------------------------------------------------------------------

TEST(VanGinneken, RejectsNonBinaryTree) {
  rct::RoutingTree t;
  const auto so = t.make_source(default_driver());
  const auto hub = t.add_internal(so, rct::Wire{100, 10, 1 * fF, 0});
  for (int i = 0; i < 3; ++i)
    t.add_sink(hub, rct::Wire{50, 5, 1 * fF, 0},
               default_sink(5 * fF, 0, 0.8, ("s" + std::to_string(i)).c_str()));
  EXPECT_THROW((void)core::optimize(t, kLib, {}), std::invalid_argument);
}

TEST(VanGinneken, RejectsEmptyLibrary) {
  auto t = segmented_two_pin(1000.0, 500.0);
  EXPECT_THROW((void)core::optimize(t, lib::BufferLibrary{}, {}),
               std::invalid_argument);
}

// --- tool drivers ----------------------------------------------------------------

TEST(Tool, BuffOptEndToEnd) {
  auto t = steiner::make_two_pin(9000.0, default_driver(150.0, 30 * ps),
                                 default_sink(15 * fF, 2 * ns),
                                 lib::default_technology());
  const auto res = core::run_buffopt(t, kLib);
  EXPECT_GT(res.noise_before.violation_count, 0u);
  EXPECT_EQ(res.noise_after.violation_count, 0u);
  EXPECT_TRUE(res.vg.feasible);
  EXPECT_LT(res.timing_after.max_delay, res.timing_before.max_delay);
  EXPECT_GE(res.optimize_seconds, 0.0);
}

TEST(Tool, DelayOptRespectsCap) {
  auto t = steiner::make_two_pin(12000.0, default_driver(150.0, 30 * ps),
                                 default_sink(15 * fF, 2 * ns),
                                 lib::default_technology());
  const auto res = core::run_delayopt(t, kLib, 2);
  EXPECT_LE(res.vg.buffer_count, 2u);
  EXPECT_LT(res.timing_after.max_delay, res.timing_before.max_delay);
}

}  // namespace
