// Parameterized property sweeps (TEST_P) over lengths, seeds and
// granularities: the library's key invariants must hold across the whole
// parameter space, not just hand-picked cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/random_library.hpp"
#include "common/test_nets.hpp"
#include "core/alg1_single_sink.hpp"
#include "core/alg2_multi_sink.hpp"
#include "core/theory.hpp"
#include "core/tool.hpp"
#include "elmore/elmore.hpp"
#include "noise/devgan.hpp"
#include "elmore/slew.hpp"
#include "lib/wire.hpp"
#include "noise/pulse.hpp"
#include "core/vanginneken.hpp"
#include "core/cand_sweeps.hpp"
#include "core/vg_kernel.hpp"
#include "netgen/netgen.hpp"
#include "seg/segment.hpp"
#include "sim/golden.hpp"
#include "steiner/steiner.hpp"
#include "util/rng.hpp"

namespace {

using namespace nbuf;
using namespace nbuf::units;
using test::default_driver;
using test::default_sink;

const lib::BufferLibrary kLib = lib::default_library();

// --- length sweep: two-pin invariants ---------------------------------------

class LengthSweep : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(TwoPin, LengthSweep,
                         ::testing::Values(500.0, 1500.0, 3000.0, 4500.0,
                                           6000.0, 8000.0, 11000.0, 14000.0));

TEST_P(LengthSweep, MetricUpperBoundsGolden) {
  auto t = test::long_two_pin(GetParam());
  const auto gopt = sim::golden_options_from(lib::default_technology());
  const auto metric = noise::analyze_unbuffered(t);
  const auto golden = sim::golden_analyze_unbuffered(t, gopt);
  EXPECT_GE(metric.sinks[0].noise, golden.sinks[0].peak);
}

TEST_P(LengthSweep, Alg1AlwaysClean) {
  auto t = test::long_two_pin(GetParam());
  const auto res = core::avoid_noise_single_sink(t, kLib);
  EXPECT_TRUE(noise::analyze(res.tree, res.buffers, kLib).clean());
}

TEST_P(LengthSweep, Alg1GoldenClean) {
  auto t = test::long_two_pin(GetParam());
  const auto gopt = sim::golden_options_from(lib::default_technology());
  const auto res = core::avoid_noise_single_sink(t, kLib);
  EXPECT_EQ(sim::golden_analyze(res.tree, res.buffers, kLib, gopt)
                .violation_count,
            0u);
}

TEST_P(LengthSweep, BuffOptCleanAndTimed) {
  auto t = steiner::make_two_pin(GetParam(), default_driver(150.0, 30 * ps),
                                 default_sink(15 * fF, 0.0),
                                 lib::default_technology());
  // RAT = 1.2x the delay-optimal arrival.
  const auto d = core::run_delayopt(t, kLib, 12);
  auto info = t.sinks().front();
  info.required_arrival = 1.2 * d.timing_after.max_delay;
  t.set_sink_info(rct::SinkId{0}, info);
  const auto res = core::run_buffopt(t, kLib);
  ASSERT_TRUE(res.vg.feasible);
  EXPECT_EQ(res.noise_after.violation_count, 0u);
  EXPECT_GE(res.timing_after.worst_slack, -1e-12);
}

// --- driver sweep: Theorem 1 monotonicity -----------------------------------

class DriverSweep : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Resistances, DriverSweep,
                         ::testing::Values(25.0, 50.0, 100.0, 200.0, 400.0,
                                           800.0));

TEST_P(DriverSweep, CriticalLengthConsistent) {
  const auto tech = lib::default_technology();
  const double r = GetParam();
  const auto len = core::critical_length(
      r, tech.wire_res_per_um, tech.coupling_current_per_um(), 0.8, 0.0);
  ASSERT_TRUE(len.has_value());
  const double noise = core::uniform_wire_noise(
      r, tech.wire_res_per_um, tech.coupling_current_per_um(), *len, 0.0);
  EXPECT_NEAR(noise, 0.8, 1e-9);
}

TEST_P(DriverSweep, UnbufferedNoiseMatchesUniformFormula) {
  const double r = GetParam();
  const double len = 3000.0;
  auto t = test::long_two_pin(len, r);
  const auto tech = lib::default_technology();
  const auto rep = noise::analyze_unbuffered(t);
  const double expect = core::uniform_wire_noise(
      r, tech.wire_res_per_um, tech.coupling_current_per_um(), len, 0.0);
  EXPECT_NEAR(rep.sinks[0].noise, expect, expect * 1e-9);
}

// --- seed sweep: random multi-sink nets --------------------------------------

class SeedSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Range(1, 13));  // 12 random nets

rct::RoutingTree seeded_net(int seed) {
  util::Rng rng(static_cast<std::uint64_t>(seed) * 77 + 5);
  const int sinks = rng.uniform_int(2, 9);
  const double span = rng.uniform(3000.0, 9000.0);
  std::vector<steiner::PinSpec> pins;
  for (int i = 0; i < sinks; ++i) {
    steiner::PinSpec p;
    p.at = {rng.uniform(0.2 * span, span), rng.uniform(0.0, span)};
    p.info = default_sink(rng.uniform(5 * fF, 30 * fF), 0.0, 0.8,
                          ("s" + std::to_string(i)).c_str());
    pins.push_back(p);
  }
  return steiner::build_tree({0, 0},
                             default_driver(rng.uniform(60.0, 350.0)), pins,
                             lib::default_technology());
}

TEST_P(SeedSweep, Alg2CleansRandomNet) {
  auto t = seeded_net(GetParam());
  const auto res = core::avoid_noise_multi_sink(t, kLib);
  EXPECT_TRUE(noise::analyze(res.tree, res.buffers, kLib).clean());
}

TEST_P(SeedSweep, MetricBoundsGoldenAtEverySink) {
  auto t = seeded_net(GetParam());
  const auto gopt = sim::golden_options_from(lib::default_technology());
  const auto metric = noise::analyze_unbuffered(t);
  const auto golden = sim::golden_analyze_unbuffered(t, gopt);
  for (std::size_t i = 0; i < metric.sinks.size(); ++i)
    EXPECT_GE(metric.sinks[i].noise + 1e-12, golden.sinks[i].peak)
        << "sink " << i;
}

TEST_P(SeedSweep, BuffOptCleanOnRandomNet) {
  auto t = seeded_net(GetParam());
  const auto res = core::run_buffopt(t, kLib);
  ASSERT_TRUE(res.vg.feasible);
  EXPECT_EQ(res.noise_after.violation_count, 0u);
}

TEST_P(SeedSweep, ElmoreSlackSelfConsistent) {
  auto t = seeded_net(GetParam());
  const auto res = core::run_delayopt(t, kLib, 8);
  const auto timing = elmore::analyze(res.tree, res.vg.buffers, kLib);
  EXPECT_NEAR(res.vg.slack, timing.worst_slack, 1e-13);
}

// --- randomized DP optimality sweep -------------------------------------------

// Exhaustive optimum over buffer subsets of a single type on a coarsely
// segmented random tree; the DP must match it exactly.
class OptimalitySweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalitySweep, ::testing::Range(1, 9));

TEST_P(OptimalitySweep, DpMatchesBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 17);
  const int sinks = rng.uniform_int(2, 4);
  const double span = rng.uniform(2500.0, 5000.0);
  std::vector<steiner::PinSpec> pins;
  for (int i = 0; i < sinks; ++i) {
    steiner::PinSpec p;
    p.at = {rng.uniform(0.3 * span, span), rng.uniform(0.0, span)};
    p.info = default_sink(rng.uniform(5 * fF, 30 * fF), 2 * ns, 0.8,
                          ("s" + std::to_string(i)).c_str());
    pins.push_back(p);
  }
  auto t = steiner::build_tree({0, 0},
                               default_driver(rng.uniform(80.0, 300.0)),
                               pins, lib::default_technology());
  seg::segment(t, {1200.0});
  std::vector<rct::NodeId> sites;
  for (auto id : t.preorder())
    if (t.node(id).kind == rct::NodeKind::Internal &&
        t.node(id).buffer_allowed)
      sites.push_back(id);
  if (sites.size() > 12) GTEST_SKIP() << "too many sites to enumerate";

  const auto one = lib::single_buffer_library();
  for (bool noise_mode : {false, true}) {
    double best = -std::numeric_limits<double>::infinity();
    rct::BufferAssignment a;
    for (std::size_t mask = 0; mask < (1u << sites.size()); ++mask) {
      a.clear();
      for (std::size_t i = 0; i < sites.size(); ++i)
        if (mask & (1u << i)) a.place(sites[i], lib::BufferId{0});
      if (noise_mode && !noise::analyze(t, a, one).clean()) continue;
      best = std::max(best, elmore::analyze(t, a, one).worst_slack);
    }
    core::VgOptions opt;
    opt.noise_constraints = noise_mode;
    opt.max_buffers = sites.size() + 1;
    const auto res = core::optimize(t, one, opt);
    if (best == -std::numeric_limits<double>::infinity()) {
      EXPECT_FALSE(res.feasible);
    } else {
      EXPECT_NEAR(res.slack, best, std::abs(best) * 1e-9 + 1e-18)
          << "noise_mode=" << noise_mode;
    }
  }
}

// --- segmentation sweep --------------------------------------------------------

class SegSweep : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Granularity, SegSweep,
                         ::testing::Values(2000.0, 1000.0, 500.0, 250.0));

TEST_P(SegSweep, NoiseAndDelayInvariantUnderSegmentation) {
  auto t = test::long_two_pin(9000.0);
  seg::segment(t, {GetParam()});
  const auto rep = noise::analyze_unbuffered(t);
  const auto timing = elmore::analyze_unbuffered(t);
  // Same values regardless of granularity (additivity of both metrics).
  auto t0 = test::long_two_pin(9000.0);
  EXPECT_NEAR(rep.sinks[0].noise,
              noise::analyze_unbuffered(t0).sinks[0].noise, 1e-9);
  EXPECT_NEAR(timing.max_delay,
              elmore::analyze_unbuffered(t0).max_delay, 1e-15);
}

TEST_P(SegSweep, BuffOptStaysCleanAtAnyGranularity) {
  auto t = steiner::make_two_pin(9000.0, default_driver(150.0, 30 * ps),
                                 default_sink(15 * fF, 2 * ns),
                                 lib::default_technology());
  core::ToolOptions opt;
  opt.segmenting.max_segment_length = GetParam();
  const auto res = core::run_buffopt(t, kLib, opt);
  ASSERT_TRUE(res.vg.feasible);
  EXPECT_EQ(res.noise_after.violation_count, 0u);
}

// --- extension sweeps: wire sizing, slew, pulse width over random nets ---------

class ExtensionSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ExtensionSweep, ::testing::Range(20, 28));

TEST_P(ExtensionSweep, WireSizingNeverWorseOnRandomNets) {
  auto t = seeded_net(GetParam());
  seg::segment(t, {500.0});
  core::VgOptions plain, sized;
  plain.noise_constraints = false;
  sized.noise_constraints = false;
  sized.wire_widths = lib::default_wire_widths();
  const auto r0 = core::optimize(t, kLib, plain);
  const auto r1 = core::optimize(t, kLib, sized);
  EXPECT_GE(r1.slack, r0.slack - 1e-15);
  // Self-consistency of the sized prediction.
  auto sized_tree = t;
  core::apply_wire_widths(sized_tree, r1.wire_widths, sized.wire_widths);
  EXPECT_NEAR(r1.slack,
              elmore::analyze(sized_tree, r1.buffers, kLib).worst_slack,
              1e-13);
}

TEST_P(ExtensionSweep, SlewConstraintHonoredOnRandomNets) {
  auto t = seeded_net(GetParam());
  seg::segment(t, {400.0});
  core::VgOptions opt;
  opt.noise_constraints = true;
  opt.max_slew = 300.0 * ps;
  const auto res = core::optimize(t, kLib, opt);
  if (!res.feasible) GTEST_SKIP() << "net cannot meet 300 ps slew";
  EXPECT_LE(elmore::slews(t, res.buffers, kLib).max_slew,
            300.0 * ps * (1.0 + 1e-9));
  EXPECT_TRUE(noise::analyze(t, res.buffers, kLib).clean());
}

TEST_P(ExtensionSweep, PulseWidthEstimateBracketsGolden) {
  auto t = seeded_net(GetParam());
  const auto gopt = sim::golden_options_from(lib::default_technology());
  const auto est = noise::pulse_widths(t, {}, lib::BufferLibrary{},
                                       lib::default_technology().aggressor_rise);
  const auto golden = sim::golden_analyze_unbuffered(t, gopt);
  for (std::size_t i = 0; i < est.sinks.size(); ++i) {
    if (golden.sinks[i].peak < 0.02) continue;  // width ill-defined
    const double ratio = est.sinks[i].width / golden.sinks[i].width;
    EXPECT_GT(ratio, 0.4) << "sink " << i;
    EXPECT_LT(ratio, 4.0) << "sink " << i;
  }
}

// --- multi-library kernel properties (PR 6) ---------------------------------

TEST(LibraryProperties, SupersetLibraryNeverWorse) {
  // The DP is exact: every solution expressible with a sub-library is also
  // expressible (same placements, same arithmetic) with any superset, so
  // adding buffer types can only preserve feasibility and raise the best
  // slack — exactly, not within tolerance. Violations would mean pruning
  // dropped an optimal candidate somewhere.
  const lib::BufferLibrary sup = test::random_library(0xD00D, 12, 0.4);
  lib::BufferLibrary sub;
  for (std::size_t i = 0; i < sup.size(); i += 2)
    sub.add(sup.at(lib::BufferId{static_cast<lib::BufferId::underlying_type>(i)}));

  netgen::TestbenchOptions gen;
  gen.net_count = 30;
  gen.seed = 5107;
  const auto nets = netgen::generate_testbench(lib::default_library(), gen);
  std::size_t feasible_subs = 0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    SCOPED_TRACE(nets[i].name);
    rct::RoutingTree segmented = nets[i].tree;
    seg::segment(segmented, {500.0});
    core::VgOptions opt;
    opt.noise_constraints = (i % 2 == 0);
    const auto with_sub = core::optimize(segmented, sub, opt);
    const auto with_sup = core::optimize(segmented, sup, opt);
    if (!with_sub.feasible) continue;
    ++feasible_subs;
    EXPECT_TRUE(with_sup.feasible);
    EXPECT_GE(with_sup.slack, with_sub.slack);
  }
  EXPECT_GT(feasible_subs, 10u);  // the property was actually exercised
}

TEST(LibraryProperties, ChosenSolutionsMatchSinkPolarity) {
  // Polarity invariant: every returned solution drives every sink at the
  // polarity it asked for — the inverter count on each source->sink path
  // is even (or odd for require_inverted sinks). The DP enforces this by
  // construction (only phase-0 source candidates are answers); the check
  // here is on the OUTPUT plan, so any phase-bookkeeping bug that slips an
  // odd path through shows up as a user-visible wrong answer.
  const lib::BufferLibrary library = test::random_library(0xF1F7, 10, 0.6);
  netgen::TestbenchOptions gen;
  gen.net_count = 40;
  gen.seed = 6211;
  const auto nets = netgen::generate_testbench(lib::default_library(), gen);
  std::size_t buffered = 0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    SCOPED_TRACE(nets[i].name);
    rct::RoutingTree segmented = nets[i].tree;
    seg::segment(segmented, {500.0});
    core::VgOptions opt;
    opt.noise_constraints = (i % 2 == 0);
    const auto res = core::optimize(segmented, library, opt);
    if (!res.feasible) continue;
    if (res.buffer_count > 0) ++buffered;
    for (const auto& s : segmented.sinks())
      EXPECT_EQ(res.buffers.inverted_at(segmented, library, s.node),
                s.require_inverted)
          << s.name;
  }
  EXPECT_GT(buffered, 10u);
}

TEST(LibraryProperties, InvertedSinkNeedsAnInverter) {
  // A sink demanding inverted polarity is unreachable without inverting
  // types (parity can never turn odd)...
  rct::SinkInfo sink = test::default_sink();
  sink.require_inverted = true;
  sink.required_arrival = 5000.0 * ps;
  const auto net = steiner::make_two_pin(4000.0, test::default_driver(),
                                         sink, lib::default_technology());
  rct::RoutingTree segmented = net;
  seg::segment(segmented, {500.0});
  core::VgOptions opt;
  opt.noise_constraints = false;  // isolate polarity from noise feasibility

  const lib::BufferLibrary plain = test::random_library(0xB0B0, 6, 0.0);
  EXPECT_FALSE(core::optimize(segmented, plain, opt).feasible);

  // ...and with inverters available the chosen solution must use an odd
  // number of them on the path.
  const lib::BufferLibrary mixed = test::random_library(0xB0B1, 6, 0.5);
  const auto res = core::optimize(segmented, mixed, opt);
  ASSERT_TRUE(res.feasible);
  EXPECT_TRUE(res.buffers.inverted_at(segmented, mixed,
                                      segmented.sinks().front().node));
}

// The reference kernel's selection loop (vanginneken.cpp insert_buffers):
// verbatim predicates, q expression and strict `>`, plus a count of the
// entries a predicate rejects.
core::detail::BestPredecessor reference_select(
    const core::detail::CandList& view, const lib::BufferType& b, bool noise,
    double max_slew) {
  core::detail::BestPredecessor best;
  double best_q = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < view.size(); ++i) {
    const core::detail::VgCand& c = view[i];
    if (noise && b.resistance * c.current > c.noise_slack) {
      ++best.infeasible;
      continue;
    }
    if (elmore::kSlewFactor * (b.resistance * c.load + c.dhat) > max_slew) {
      ++best.infeasible;
      continue;
    }
    const double q = c.slack - b.intrinsic_delay - b.resistance * c.load;
    if (q > best_q) {
      best_q = q;
      best.idx = i;
    }
  }
  best.q = best_q;
  return best;
}

TEST(LibraryProperties, SelectBestPredecessorMatchesReferenceScan) {
  // Best-predecessor selection, isolated from the DP: on random staircases
  // one select_best_predecessors call must answer every type exactly as
  // the reference loop does for that type alone — the same entry (first
  // index among bit-equal q maxima), its q bit for bit, and the same count
  // of infeasible entries. Odd trials use small integers, so q is exact
  // and many entries tie bit for bit for some type; every tenth trial runs
  // the 64-type strength ladder.
  util::Rng rng(0xC0DE5);
  const double inf = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const bool exact = trial % 2 == 1;
    const std::size_t types = 1 + static_cast<std::size_t>(trial % 13);
    lib::BufferLibrary library;
    if (exact) {
      for (std::size_t t = 0; t < types; ++t)
        library.add({"t" + std::to_string(t),
                     static_cast<double>(rng.uniform_int(1, 4)),
                     static_cast<double>(rng.uniform_int(1, 9)),
                     static_cast<double>(rng.uniform_int(0, 3)), 1.0, false});
    } else if (trial % 10 == 4) {
      library = lib::make_ladder_library(64, 0.45);
    } else {
      library = test::random_library(
          9000 + static_cast<std::uint64_t>(trial), types, 0.4);
    }
    const bool noise = rng.chance(0.5);
    double max_slew = inf;
    if (rng.chance(0.4))
      max_slew = exact ? static_cast<double>(rng.uniform_int(5, 200))
                       : rng.uniform(80.0, 400.0) * ps;

    // A strict Pareto staircase. In exact trials a slack step of
    // R * (load step) keeps q equal to the previous entry's for every type
    // of resistance R.
    core::detail::CandList view;
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 40));
    double load = exact ? 1.0 : rng.uniform(1.0, 30.0) * fF;
    double slack = exact ? -50.0 : rng.uniform(-800.0, 0.0) * ps;
    const double tie_r = exact ? static_cast<double>(rng.uniform_int(1, 4))
                               : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double current, ns, dhat;
      if (exact) {
        current = static_cast<double>(rng.uniform_int(0, 6));
        ns = static_cast<double>(rng.uniform_int(0, 12));
        dhat = static_cast<double>(rng.uniform_int(0, 20));
      } else {
        current = rng.uniform(0.0, 120.0) * uA;
        ns = rng.uniform(0.0, 0.9);
        dhat = rng.uniform(0.0, 300.0) * ps;
      }
      double s = slack;
      // q = -inf / NaN entries: they never win, but still pass or fail
      // the predicates like any other entry.
      if (rng.chance(0.05)) s = rng.chance(0.5) ? -inf : std::nan("");
      view.push_back({load, s, current, ns, dhat, core::kNullPlan});
      const double dl = exact ? static_cast<double>(rng.uniform_int(1, 3))
                              : rng.uniform(0.5, 40.0) * fF;
      load += dl;
      slack += exact ? tie_r * dl + (rng.chance(0.6) ? 0.0 : 1.0)
                     : rng.uniform(1.0, 120.0) * ps;
    }
    // Stale answers (a previous view's) must not leak into this one.
    std::vector<core::detail::BestPredecessor> got(library.size(),
                                                   {0, 1.0, 7});
    core::detail::select_best_predecessors(view, library.types(), noise,
                                           max_slew, got);
    for (lib::BufferId id : library.ids()) {
      const auto want = reference_select(view, library.at(id), noise, max_slew);
      const auto& g = got[id.value()];
      EXPECT_EQ(g.idx, want.idx) << "type " << id.value();
      EXPECT_EQ(g.infeasible, want.infeasible) << "type " << id.value();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.q),
                std::bit_cast<std::uint64_t>(want.q))
          << "type " << id.value();
    }
  }
}

TEST(LibraryProperties, FuseBufferTailMatchesAppendSortPrune) {
  // The fuse step against its definition: drop records dominated at birth
  // by the pre-insertion staircase (dominated_by_staircase, ties
  // included), append the rest with their plan cells, sort by cand_less,
  // prune_sweep. Inputs stress every tie the merge must order exactly:
  // records on a view entry's (load, slack), records sharing an input cap
  // with bit-equal q (and sometimes noise margin, leaving the type id),
  // q = -inf, noise-dead records, and empty targets.
  util::Rng rng(0xF05E);
  const double inf = std::numeric_limits<double>::infinity();
  const rct::NodeId v{7};
  for (int trial = 0; trial < 600; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const bool noise = rng.chance(0.7);
    core::PlanArena arena;
    std::vector<core::PlanRef> refs{core::kNullPlan};
    for (std::uint32_t w = 0; w < 6; ++w)
      refs.push_back(arena.wire(refs.back(), {rct::NodeId{w}, w + 1}));
    const auto any_ref = [&] {
      return refs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(refs.size()) - 1))];
    };

    // The target: a pruned staircase (strictly ascending loads and
    // slacks, no dead entry) on a small integer grid.
    core::detail::CandList view;
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 12));
    double load = static_cast<double>(rng.uniform_int(1, 4));
    double slack = static_cast<double>(rng.uniform_int(-20, 0));
    for (std::size_t i = 0; i < n; ++i) {
      const core::detail::VgCand c{
          load, slack, static_cast<double>(rng.uniform_int(0, 5)),
          static_cast<double>(rng.uniform_int(0, 9)),
          static_cast<double>(rng.uniform_int(0, 9)), any_ref()};
      view.push_back(c);
      load += static_cast<double>(rng.uniform_int(1, 4));
      slack += static_cast<double>(rng.uniform_int(1, 4));
    }

    // At most one record per type id.
    std::vector<core::detail::BufferRecord> recs;
    const int types = rng.uniform_int(0, 10);
    for (int t = 0; t < types; ++t) {
      if (rng.chance(0.2)) continue;
      core::detail::BufferRecord r;
      r.type = lib::BufferId{static_cast<std::uint32_t>(t)};
      r.pred = any_ref();
      const double pick = rng.uniform(0.0, 1.0);
      if (!view.empty() && pick < 0.3) {  // on or next to a view entry
        const auto& e = view[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(view.size()) - 1))];
        r.input_cap = e.load;
        r.q = e.slack + static_cast<double>(rng.uniform_int(-1, 1));
      } else if (!recs.empty() && pick < 0.6) {  // bit-equal to a record
        const auto& o = recs[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(recs.size()) - 1))];
        r.input_cap = o.input_cap;
        r.q = rng.chance(0.7) ? o.q : o.q + 1.0;
        r.noise_margin = o.noise_margin;
      } else {
        r.input_cap = static_cast<double>(rng.uniform_int(0, 30));
        r.q = rng.chance(0.05) ? -inf
                               : static_cast<double>(rng.uniform_int(-25, 40));
      }
      if (r.noise_margin == 0.0 || rng.chance(0.3))
        r.noise_margin = static_cast<double>(rng.uniform_int(-2, 6));
      recs.push_back(r);
    }
    for (std::size_t i = recs.size(); i > 1; --i)  // random id order
      std::swap(recs[i - 1], recs[static_cast<std::size_t>(rng.uniform_int(
                                 0, static_cast<int>(i) - 1))]);

    // Oracle: the definition, in its own copy of the arena.
    core::PlanArena oracle_arena = arena;
    core::detail::CandList sorted = view;
    std::size_t born_dominated = 0;
    for (const auto& r : recs) {
      if (core::detail::dominated_by_staircase(view.data(), view.size(),
                                               r.input_cap, r.q)) {
        ++born_dominated;
        continue;
      }
      sorted.push_back({r.input_cap, r.q, 0.0, r.noise_margin, 0.0,
                        oracle_arena.buffer(r.pred, {v, 0.0, r.type})});
    }
    const std::size_t passed = sorted.size() - n;
    std::sort(sorted.begin(), sorted.end(),  // nbuf-lint: allow(sort)
              [&](const core::detail::VgCand& x,
                  const core::detail::VgCand& y) {
                return core::detail::cand_less(x, y, oracle_arena);
              });
    core::detail::sweeps::PruneResult pr;
    if (passed > 0) pr = core::detail::sweeps::prune_sweep(sorted, noise);

    core::detail::CandList list = view;
    core::detail::CandList scratch;
    const std::size_t cells_before = arena.cell_count();
    const core::detail::FuseCounts got = core::detail::fuse_buffer_tail(
        list, recs.data(), recs.size(), v, noise, arena, scratch);

    EXPECT_EQ(got.born_dominated, born_dominated);
    EXPECT_EQ(got.passed, passed);
    EXPECT_EQ(got.dead, pr.dead);
    EXPECT_EQ(got.inferior, pr.inferior);
    ASSERT_EQ(list.size(), sorted.size());
    std::size_t fresh = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      SCOPED_TRACE("entry " + std::to_string(i));
      EXPECT_EQ(list[i].load, sorted[i].load);
      EXPECT_EQ(list[i].slack, sorted[i].slack);
      EXPECT_EQ(list[i].current, sorted[i].current);
      EXPECT_EQ(list[i].noise_slack, sorted[i].noise_slack);
      EXPECT_EQ(list[i].dhat, sorted[i].dhat);
      const core::PlanRef a = list[i].plan;
      const core::PlanRef b = sorted[i].plan;
      if (a <= cells_before) {  // carried over from the view
        EXPECT_EQ(a, b);
        continue;
      }
      ++fresh;  // a new Buffer cell: compare content across the arenas
      ASSERT_GT(b, cells_before);
      const core::PlanCell& ca = arena.at(a);
      const core::PlanCell& cb = oracle_arena.at(b);
      EXPECT_EQ(ca.kind, cb.kind);
      EXPECT_EQ(ca.a, cb.a);
      EXPECT_EQ(ca.x, cb.x);
      EXPECT_EQ(ca.y, cb.y);
      EXPECT_EQ(ca.dist, cb.dist);
    }
    // Plan cells only for the records that survive the prune.
    EXPECT_EQ(arena.cell_count() - cells_before, fresh);
  }
}

TEST(LibraryProperties, DominatedAtBirthMatchesBruteForce) {
  // The dominated-at-birth skip (one binary search against the target
  // bucket's staircase view) must agree with the definition — some view
  // entry has load <= L and slack >= S — including on exact-tie probes.
  util::Rng rng(0xDAB5);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    core::detail::CandList view;
    double load = rng.uniform(1.0, 20.0) * fF;
    double slack = rng.uniform(-500.0, 0.0) * ps;
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(0, 12));
    for (std::size_t i = 0; i < m; ++i) {
      core::detail::VgCand c;
      c.load = load;
      c.slack = slack;
      view.push_back(c);
      load += rng.uniform(0.5, 25.0) * fF;
      slack += rng.uniform(1.0, 90.0) * ps;
    }
    for (int probe = 0; probe < 12; ++probe) {
      double pl, ps_;
      if (!view.empty() && rng.chance(0.5)) {
        // Exact-tie probes: reuse a view entry's load and/or slack.
        const auto& e = view[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(view.size()) - 1))];
        pl = rng.chance(0.5) ? e.load : rng.uniform(0.5, 400.0) * fF;
        ps_ = rng.chance(0.5) ? e.slack : rng.uniform(-600.0, 300.0) * ps;
      } else {
        pl = rng.uniform(0.5, 400.0) * fF;
        ps_ = rng.uniform(-600.0, 300.0) * ps;
      }
      bool brute = false;
      for (const auto& e : view)
        brute = brute || (e.load <= pl && e.slack >= ps_);
      EXPECT_EQ(core::detail::dominated_by_staircase(view.data(), view.size(),
                                                     pl, ps_),
                brute)
          << "probe " << probe;
    }
  }
}

}  // namespace
