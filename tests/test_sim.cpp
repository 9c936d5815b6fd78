#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <variant>

#include "batch/batch.hpp"
#include "common/test_nets.hpp"
#include "core/tool.hpp"
#include "netgen/netgen.hpp"
#include "noise/devgan.hpp"
#include "signoff/signoff.hpp"
#include "signoff/workload.hpp"
#include "sim/dense.hpp"
#include "sim/golden.hpp"
#include "sim/stage_circuit.hpp"
#include "sim/tree_solver.hpp"
#include "util/rng.hpp"

namespace {

using namespace nbuf;
using namespace nbuf::units;

// --- DenseLu -------------------------------------------------------------------

TEST(DenseLu, SolvesKnownSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
  sim::DenseLu lu({2, 1, 1, 3}, 2);
  std::vector<double> b = {5, 10};
  lu.solve(b);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(DenseLu, PivotingHandlesZeroDiagonal) {
  // [0 1; 1 0] x = [2; 3] -> x = [3; 2]
  sim::DenseLu lu({0, 1, 1, 0}, 2);
  std::vector<double> b = {2, 3};
  lu.solve(b);
  EXPECT_NEAR(b[0], 3.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(DenseLu, SingularThrows) {
  EXPECT_THROW(sim::DenseLu({1, 2, 2, 4}, 2), std::invalid_argument);
}

TEST(DenseLu, RandomSystemsRoundTrip) {
  util::Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 12;
    std::vector<double> a(n * n);
    for (auto& v : a) v = rng.uniform(-1, 1);
    for (std::size_t i = 0; i < n; ++i) a[i * n + i] += 5.0;  // diag dominant
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.uniform(-2, 2);
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) b[i] += a[i * n + j] * x_true[j];
    sim::DenseLu lu(a, n);
    lu.solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-9);
  }
}

// --- DenseCircuit ----------------------------------------------------------------

TEST(DenseCircuit, DcVoltageDivider) {
  sim::DenseCircuit c;
  const auto n1 = c.add_nodes(2);  // n1, n2
  c.add_driven_node(n1, 100.0, [](double) { return 1.0; });
  c.add_resistor(n1, n1 + 1, 100.0);
  c.add_resistor(n1 + 1, 0, 200.0);
  const auto v = c.dc(0.0);
  // Source 1V behind 100; divider: v1 = 1 * 300/(400) ... solve: current
  // i = 1/(100+100+200) = 2.5mA; v1 = 1 - 0.25 = 0.75; v2 = 0.5.
  EXPECT_NEAR(v[n1], 0.75, 1e-9);
  EXPECT_NEAR(v[n1 + 1], 0.5, 1e-9);
}

TEST(DenseCircuit, RcStepResponseMatchesAnalytic) {
  // Single RC: v(t) = 1 - e^{-t/RC}.
  const double R = 1000.0, C = 1e-12;
  sim::DenseCircuit c;
  const auto n = c.add_nodes(1);
  c.add_driven_node(n, R, [](double) { return 1.0; });
  c.add_capacitor(n, 0, C);
  const double tau = R * C;
  const auto res = c.transient(5 * tau, tau / 2000.0);
  const double expect = 1.0 - std::exp(-5.0);
  EXPECT_NEAR(res.final_v[n], expect, 2e-3);
}

TEST(DenseCircuit, TrapezoidalAgreesWithBackwardEuler) {
  const double R = 500.0, C = 2e-12;
  sim::DenseCircuit c;
  const auto n = c.add_nodes(1);
  c.add_driven_node(n, R, [](double t) { return t > 1e-10 ? 1.0 : 0.0; });
  c.add_capacitor(n, 0, C);
  const auto be = c.transient(5e-9, 1e-12, sim::DenseCircuit::Method::BackwardEuler);
  const auto tr = c.transient(5e-9, 1e-12, sim::DenseCircuit::Method::Trapezoidal);
  EXPECT_NEAR(be.final_v[n], tr.final_v[n], 1e-3);
}

TEST(DenseCircuit, CouplingInjectsNoise) {
  // Quiet node coupled to a ramp through C_c shows a transient bump that
  // decays back to zero.
  sim::DenseCircuit c;
  const auto victim = c.add_nodes(2);  // victim, aggressor
  const auto aggr = victim + 1;
  c.add_resistor(victim, 0, 200.0);  // victim driver holds low
  c.add_driven_node(aggr, 1.0, [](double t) {
    return 1.8 * std::clamp(t / 0.25e-9, 0.0, 1.0);
  });
  c.add_capacitor(victim, aggr, 100 * fF);
  const auto res = c.transient(3e-9, 0.5e-12);
  EXPECT_GT(res.peak_abs[victim], 0.01);
  EXPECT_NEAR(res.final_v[victim], 0.0, 1e-3);
}

// --- TreeSolver ------------------------------------------------------------------

TEST(TreeSolver, ChainMatchesAnalytic) {
  // Root grounded through g=1 (extra), chain of two resistors g=2; inject
  // 1A at the leaf: v_leaf - hand-solved ladder.
  sim::TreeSolver s({0, 0, 1}, {0, 2.0, 2.0}, {1.0, 0.0, 0.0});
  std::vector<double> rhs = {0.0, 0.0, 1.0};
  s.solve(rhs);
  // All 1A flows to ground through root: v0 = 1/1 = 1; v1 = v0 + 1/2;
  // v2 = v1 + 1/2.
  EXPECT_NEAR(rhs[0], 1.0, 1e-12);
  EXPECT_NEAR(rhs[1], 1.5, 1e-12);
  EXPECT_NEAR(rhs[2], 2.0, 1e-12);
}

TEST(TreeSolver, MatchesDenseOnRandomTrees) {
  util::Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(1, 30));
    std::vector<std::size_t> parent(n, 0);
    std::vector<double> g(n, 0.0), extra(n, 0.0);
    for (std::size_t i = 1; i < n; ++i) {
      parent[i] = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i) - 1));
      g[i] = rng.uniform(0.1, 10.0);
      extra[i] = rng.chance(0.5) ? rng.uniform(0.0, 1.0) : 0.0;
    }
    extra[0] = rng.uniform(0.5, 2.0);
    // Dense version of the same Laplacian-plus-diagonal.
    std::vector<double> a(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) a[i * n + i] += extra[i];
    for (std::size_t i = 1; i < n; ++i) {
      a[i * n + i] += g[i];
      a[parent[i] * n + parent[i]] += g[i];
      a[i * n + parent[i]] -= g[i];
      a[parent[i] * n + i] -= g[i];
    }
    std::vector<double> rhs(n);
    for (auto& v : rhs) v = rng.uniform(-1, 1);
    std::vector<double> dense_rhs = rhs;
    sim::DenseLu lu(a, n);
    lu.solve(dense_rhs);
    sim::TreeSolver ts(parent, g, extra);
    ts.solve(rhs);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(rhs[i], dense_rhs[i], 1e-9);
  }
}

TEST(TreeSolver, RejectsSingularSystem) {
  // No grounding anywhere: floating network.
  EXPECT_THROW(sim::TreeSolver({0, 0}, {0.0, 1.0}, {0.0, 0.0}),
               std::invalid_argument);
}

TEST(TreeSolver, RejectsCyclicParents) {
  EXPECT_THROW(sim::TreeSolver({0, 2, 1}, {0, 1, 1}, {1, 0, 0}),
               std::invalid_argument);
}

// --- golden noise analysis ----------------------------------------------------------

TEST(Golden, QuietNetWithoutCouplingIsSilent) {
  auto t = test::long_two_pin(3000.0);
  auto opt = sim::golden_options_from(lib::default_technology());
  opt.coupling_ratio = 0.0;
  const auto rep = sim::golden_analyze_unbuffered(t, opt);
  EXPECT_LT(rep.sinks[0].peak, 1e-9);
}

TEST(Golden, PeakIsPositiveAndBelowVdd) {
  auto t = test::long_two_pin(5000.0);
  const auto opt = sim::golden_options_from(lib::default_technology());
  const auto rep = sim::golden_analyze_unbuffered(t, opt);
  EXPECT_GT(rep.sinks[0].peak, 0.05);
  EXPECT_LT(rep.sinks[0].peak, 1.8);
}

TEST(Golden, DevganMetricIsUpperBound) {
  // The headline property (Section II-B): the metric bounds simulated peak
  // noise from above, at every length.
  const auto opt = sim::golden_options_from(lib::default_technology());
  for (double len : {1000.0, 2500.0, 5000.0, 9000.0}) {
    auto t = test::long_two_pin(len);
    const auto metric = noise::analyze_unbuffered(t);
    const auto golden = sim::golden_analyze_unbuffered(t, opt);
    EXPECT_GE(metric.sinks[0].noise, golden.sinks[0].peak)
        << "length " << len;
    EXPECT_GT(golden.sinks[0].peak, 0.0);
  }
}

TEST(Golden, MetricBoundHoldsOnMultiSinkTrees) {
  const auto opt = sim::golden_options_from(lib::default_technology());
  auto t = steiner::make_balanced_tree(3, 900.0, test::default_driver(),
                                       test::default_sink(),
                                       lib::default_technology());
  const auto metric = noise::analyze_unbuffered(t);
  const auto golden = sim::golden_analyze_unbuffered(t, opt);
  ASSERT_EQ(metric.sinks.size(), golden.sinks.size());
  for (std::size_t i = 0; i < metric.sinks.size(); ++i)
    EXPECT_GE(metric.sinks[i].noise, golden.sinks[i].peak);
}

TEST(Golden, BufferReducesPeakNoise) {
  auto t1 = test::long_two_pin(6000.0);
  auto t2 = test::long_two_pin(6000.0);
  const auto l = lib::default_library();
  const auto opt = sim::golden_options_from(lib::default_technology());
  const auto mid = t2.split_wire(t2.sinks().front().node, 3000.0);
  rct::BufferAssignment a;
  a.place(mid, lib::BufferId{9});
  const auto before = sim::golden_analyze_unbuffered(t1, opt);
  const auto after = sim::golden_analyze(t2, a, l, opt);
  EXPECT_LT(after.sinks[0].peak, before.sinks[0].peak);
}

TEST(Golden, ConvergenceCheckPassesAtDefaultStep) {
  // The production timestep (200 steps per rise) must already be converged:
  // halving dt moves no leaf peak past the tolerance, so the checked run
  // returns normally and agrees with the unchecked one.
  auto t = test::long_two_pin(5000.0);
  auto opt = sim::golden_options_from(lib::default_technology());
  const auto plain = sim::golden_analyze_unbuffered(t, opt);
  opt.check_convergence = true;
  const auto checked = sim::golden_analyze_unbuffered(t, opt);
  EXPECT_DOUBLE_EQ(checked.sinks[0].peak, plain.sinks[0].peak);
}

TEST(Golden, ConvergenceCheckFlagsCoarseStep) {
  // A deliberately coarse march (2 steps per rise) under-resolves the ramp;
  // dt/2 moves the peak, and the check must refuse to return the number.
  auto t = test::long_two_pin(5000.0);
  auto opt = sim::golden_options_from(lib::default_technology());
  opt.check_convergence = true;
  opt.steps_per_rise = 2.0;
  EXPECT_THROW(sim::golden_analyze_unbuffered(t, opt),
               sim::ConvergenceError);
}

TEST(Golden, ConvergenceErrorCarriesDiagnostics) {
  auto t = test::long_two_pin(5000.0);
  auto opt = sim::golden_options_from(lib::default_technology());
  opt.check_convergence = true;
  opt.steps_per_rise = 2.0;
  try {
    (void)sim::golden_analyze_unbuffered(t, opt);
    FAIL() << "expected ConvergenceError";
  } catch (const sim::ConvergenceError& e) {
    EXPECT_TRUE(e.node.valid());
    EXPECT_GT(e.coarse_peak, 0.0);
    EXPECT_GT(e.fine_peak, 0.0);
    // The error is precisely "the peaks disagree beyond tolerance".
    const double tol =
        std::max(sim::kConvergenceAtol, sim::kConvergenceRtol * e.fine_peak);
    EXPECT_GT(std::abs(e.coarse_peak - e.fine_peak), tol);
  }
}

TEST(Golden, ConvergenceErrorNamesFirstFailingLeafInStageOrder) {
  // A multi-sink stage at a too-coarse step: the error must name the first
  // leaf of stage.sinks whose dt/2 peak disagrees, with that leaf's peaks.
  const auto t = steiner::make_balanced_tree(3, 900.0, test::default_driver(),
                                             test::default_sink(),
                                             lib::default_technology());
  auto opt = sim::golden_options_from(lib::default_technology());
  opt.steps_per_rise = 2.0;
  const auto coarse = sim::golden_analyze_unbuffered(t, opt);
  opt.steps_per_rise = 4.0;
  const auto fine = sim::golden_analyze_unbuffered(t, opt);
  ASSERT_EQ(coarse.leaves.size(), 8u);
  std::size_t first_bad = coarse.leaves.size();
  for (std::size_t k = 0; k < coarse.leaves.size(); ++k) {
    const double a = coarse.leaves[k].peak;
    const double b = fine.leaves[k].peak;
    if (std::abs(a - b) >
        std::max(sim::kConvergenceAtol, sim::kConvergenceRtol * b)) {
      first_bad = k;
      break;
    }
  }
  ASSERT_LT(first_bad, coarse.leaves.size());

  opt.steps_per_rise = 2.0;
  opt.check_convergence = true;
  try {
    (void)sim::golden_analyze_unbuffered(t, opt);
    FAIL() << "expected ConvergenceError";
  } catch (const sim::ConvergenceError& e) {
    EXPECT_EQ(e.node, coarse.leaves[first_bad].node);
    EXPECT_EQ(e.coarse_peak, coarse.leaves[first_bad].peak);
    EXPECT_EQ(e.fine_peak, fine.leaves[first_bad].peak);
  }
}

TEST(Golden, StagePeaksFollowStageNodeOrder) {
  const auto t = steiner::make_balanced_tree(2, 900.0, test::default_driver(),
                                             test::default_sink(),
                                             lib::default_technology());
  const auto stages =
      rct::decompose(t, rct::BufferAssignment{}, lib::BufferLibrary{});
  const auto peaks = sim::golden_stage_peaks(
      t, stages[0], sim::golden_options_from(lib::default_technology()));
  ASSERT_EQ(peaks.size(), stages[0].nodes.size());
  for (std::size_t k = 0; k < peaks.size(); ++k)
    EXPECT_EQ(peaks[k].first, stages[0].nodes[k]);
}

TEST(Golden, ViolationCountUsesMargins) {
  auto t = test::long_two_pin(9000.0);  // far beyond critical length
  const auto opt = sim::golden_options_from(lib::default_technology());
  const auto rep = sim::golden_analyze_unbuffered(t, opt);
  EXPECT_EQ(rep.violation_count, 1u);
  EXPECT_LT(rep.worst_slack, 0.0);
}

TEST(Golden, TreeSolverPathMatchesDenseCircuit) {
  // Rebuild the same single-stage circuit with the dense engine and compare
  // the sink's peak.
  const double len = 2000.0;
  const auto tech = lib::default_technology();
  auto t = test::long_two_pin(len, 150.0);
  auto opt = sim::golden_options_from(tech);
  opt.section_length = 250.0;  // 8 sections
  const auto stages =
      rct::decompose(t, rct::BufferAssignment{}, lib::BufferLibrary{});
  const auto peaks = sim::golden_stage_peaks(t, stages[0], opt);
  double tree_peak = -1.0;
  for (const auto& [id, pk] : peaks)
    if (id == t.sinks().front().node) tree_peak = pk;
  ASSERT_GE(tree_peak, 0.0);

  // Dense twin: 8 pi-sections, aggressor as near-ideal driven node.
  const int n_sec = 8;
  sim::DenseCircuit dc;
  const auto first = dc.add_nodes(n_sec + 2);  // root + 8 + aggressor
  const auto root = first;
  const auto aggr = first + n_sec + 1;
  dc.add_resistor(root, 0, 150.0);  // victim driver
  const double r_sec = tech.wire_res(len) / n_sec;
  const double c_sec = tech.wire_cap(len) / n_sec;
  const double lam = tech.coupling_ratio;
  dc.add_driven_node(aggr, 1e-3, [&tech](double tt) {
    return tech.vdd * std::clamp(tt / tech.aggressor_rise, 0.0, 1.0);
  });
  for (int s = 0; s < n_sec; ++s) {
    const auto up = root + s, down = root + s + 1;
    dc.add_resistor(up, down, r_sec);
    for (auto end : {up, down}) {
      dc.add_capacitor(end, 0, (1 - lam) * c_sec / 2);
      dc.add_capacitor(end, aggr, lam * c_sec / 2);
    }
  }
  dc.add_capacitor(root + n_sec, 0, 10 * fF);  // sink pin
  const double h = tech.aggressor_rise / opt.steps_per_rise;
  const auto res = dc.transient(4e-9, h);
  EXPECT_NEAR(res.peak_abs[root + n_sec], tree_peak, 0.03 * tree_peak);
}

TEST(Golden, OptionsFromTechnology) {
  const auto tech = lib::default_technology();
  const auto opt = sim::golden_options_from(tech);
  EXPECT_DOUBLE_EQ(opt.coupling_ratio, 0.7);
  EXPECT_DOUBLE_EQ(opt.aggressor.vdd, 1.8);
  EXPECT_DOUBLE_EQ(opt.aggressor.rise, 0.25 * ns);
  EXPECT_NEAR(opt.aggressor.slope(), 7.2e9, 1.0);
}

TEST(Waveform, SaturatedRamp) {
  const sim::SaturatedRamp r{1.8, 0.25 * ns, 0.0};
  EXPECT_DOUBLE_EQ(r.at(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(r.at(0.125 * ns), 0.9);
  EXPECT_DOUBLE_EQ(r.at(1.0), 1.8);
  EXPECT_NEAR(r.slope(), 7.2e9, 1e-3);
}

TEST(Golden, InvalidOptionsAreRejectedNotReportedClean) {
  // Net 0 of a small testbench has three golden violations. Options that
  // used to march zero steps (steps_per_rise 0) or one (1e-300) reported
  // it clean; every golden entry point must refuse them instead.
  const auto nets =
      netgen::generate_testbench(lib::default_library(), {.net_count = 3});
  const rct::RoutingTree& t = nets[0].tree;
  const sim::GoldenOptions good =
      sim::golden_options_from(lib::default_technology());
  EXPECT_NO_THROW(good.validate());
  const sim::GoldenReport rep = sim::golden_analyze_unbuffered(t, good);
  ASSERT_EQ(rep.violation_count, 3u);
  EXPECT_LT(rep.worst_slack, -0.3);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using Edit = void (*)(sim::GoldenOptions&, double);
  const struct {
    const char* field;
    Edit set;
    std::vector<double> values;
  } bad[] = {
      {"steps_per_rise", [](auto& o, double v) { o.steps_per_rise = v; },
       {0.0, 1e-300, 0.5, -200.0, nan, inf}},
      // A fractional step count ends the aggressor ramp inside a timestep,
      // and the dt/2 check then swings with that phase: at 6.5 nearly
      // every testbench net reported not_converged, at 8 none did.
      {"steps_per_rise (fractional)",
       [](auto& o, double v) { o.steps_per_rise = v; }, {6.5}},
      {"section_length", [](auto& o, double v) { o.section_length = v; },
       {0.0, -100.0, nan, inf}},
      {"coupling_ratio", [](auto& o, double v) { o.coupling_ratio = v; },
       {-0.1, 1.0, nan}},
      {"aggressor.vdd", [](auto& o, double v) { o.aggressor.vdd = v; },
       {0.0, -1.8, nan, inf}},
      {"aggressor.rise", [](auto& o, double v) { o.aggressor.rise = v; },
       {0.0, -1e-10, nan, inf}},
      {"aggressor.t0", [](auto& o, double v) { o.aggressor.t0 = v; },
       {-1e-10, nan, inf}},
  };
  const rct::BufferAssignment none;
  const lib::BufferLibrary empty;
  const sim::GoldenNet net{&t, &none, &empty};
  const rct::Stage stage = rct::decompose(t, none, empty).front();
  for (const auto& b : bad) {
    for (const double v : b.values) {
      sim::GoldenOptions opt = good;
      b.set(opt, v);
      const std::string what = std::string(b.field) + " = " + std::to_string(v);
      EXPECT_THROW(opt.validate(), std::invalid_argument) << what;
      EXPECT_THROW((void)sim::golden_analyze_unbuffered(t, opt),
                   std::invalid_argument)
          << what;
      EXPECT_THROW((void)sim::golden_analyze({&net, 1}, opt),
                   std::invalid_argument)
          << what;
      EXPECT_THROW((void)sim::golden_stage_peaks(t, stage, opt),
                   std::invalid_argument)
          << what;
      EXPECT_THROW((void)sim::march_stages({}, opt), std::invalid_argument)
          << what;
    }
  }
  // A stage's own step count is checked too.
  const sim::StageCircuit c = sim::build_stage_circuit(
      t, stage, good.coupling_ratio, good.section_length);
  for (const double spr : {0.0, 0.5, 6.5, nan}) {
    const sim::StageMarch job{&c, stage.driver_resistance, spr, {0}, {}};
    EXPECT_THROW((void)sim::march_stages({&job, 1}, good),
                 std::invalid_argument);
  }
}

// --- early-exit oracle ----------------------------------------------------------
//
// golden.cpp stops a stage's march once no reported peak or width can change
// any more, and steps several stages in lockstep. The reference below is the
// one-stage, fixed-horizon march it replaced: every stage runs to
// t0 + rise + k·R_total·C_total, and the step at which the exit rule first
// holds is only recorded. The two must agree bit for bit (EXPECT_EQ on
// doubles, not NEAR).

// The node-indexed tree solver the march must reproduce: elimination in
// reversed preorder from the root, so each parent folds its children in
// ascending index. It is independent of sim::TreeSolver, so a change of the
// production elimination order shows up here as a bit difference.
class RefSolver {
 public:
  RefSolver(const std::vector<std::size_t>& parent,
            const std::vector<double>& g, const std::vector<double>& extra)
      : parent_(parent), g_(g), diag_(extra), ratio_(parent.size(), 0.0) {
    const std::size_t n = parent.size();
    std::vector<std::vector<std::size_t>> kids(n);
    for (std::size_t i = 1; i < n; ++i) kids[parent[i]].push_back(i);
    std::vector<std::size_t> stack{0};
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      order_.push_back(v);
      for (std::size_t k : kids[v]) stack.push_back(k);
    }
    std::reverse(order_.begin(), order_.end());
    for (std::size_t i = 1; i < n; ++i) diag_[i] += g_[i];
    for (std::size_t v : order_) {
      if (v == 0) break;
      ratio_[v] = g_[v] / diag_[v];
      diag_[parent_[v]] += g_[v] * (1.0 - ratio_[v]);
    }
  }
  void solve(std::vector<double>& x) const {
    for (std::size_t v : order_) {
      if (v == 0) break;
      x[parent_[v]] += ratio_[v] * x[v];
    }
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      const std::size_t v = *it;
      x[v] = v == 0 ? x[0] / diag_[0]
                    : (x[v] + g_[v] * x[parent_[v]]) / diag_[v];
    }
  }

 private:
  std::vector<std::size_t> parent_, order_;
  std::vector<double> g_, diag_, ratio_;
};

struct RefMarch {
  std::vector<double> peak;   // per sim node
  std::vector<double> width;  // per sim node; set for `traced` only
  std::size_t steps_marched = 0;  // where the exit rule first holds
  std::size_t steps_horizon = 0;
};

// `reported` are the nodes whose peaks are reported (the exit rule's peak
// term), `traced` those whose widths are measured (its half-peak term).
RefMarch reference_march(const sim::StageCircuit& c, double r_drv,
                         const sim::GoldenOptions& opt, double steps_per_rise,
                         const std::vector<std::size_t>& reported,
                         const std::vector<std::size_t>& traced) {
  const std::size_t n = c.size();
  const double h = opt.aggressor.rise / steps_per_rise;
  double r_total = r_drv;
  double c_total = 0.0;
  for (std::size_t i = 1; i < n; ++i) r_total += 1.0 / c.branch_g[i];
  for (std::size_t i = 0; i < n; ++i) c_total += c.total_cap(i);
  const double t_end = opt.aggressor.t0 + opt.aggressor.rise +
                       sim::kSettleTimeConstants * r_total * c_total;
  std::vector<double> extra(n, 0.0);
  extra[0] = 1.0 / r_drv;
  for (std::size_t i = 0; i < n; ++i) extra[i] += c.total_cap(i) / h;
  const RefSolver solver(c.parent, c.branch_g, extra);
  std::vector<double> v(n, 0.0), rhs(n);
  RefMarch out{std::vector<double>(n, 0.0), std::vector<double>(n, 0.0)};
  std::vector<std::vector<double>> trace(traced.size());
  const auto steps = static_cast<std::size_t>(std::ceil(t_end / h));
  out.steps_horizon = out.steps_marched = steps;
  double va_prev = opt.aggressor.at(0.0);
  for (std::size_t step = 1; step <= steps; ++step) {
    const double va = opt.aggressor.at(static_cast<double>(step) * h);
    const double dva = va - va_prev;
    va_prev = va;
    for (std::size_t i = 0; i < n; ++i)
      rhs[i] = c.total_cap(i) / h * v[i] + c.cap_couple[i] / h * dva;
    solver.solve(rhs);
    v = rhs;
    double v_max = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      out.peak[i] = std::max(out.peak[i], std::abs(v[i]));
      v_max = std::max(v_max, std::abs(v[i]));
    }
    for (std::size_t k = 0; k < traced.size(); ++k)
      trace[k].push_back(std::abs(v[traced[k]]));
    double floor = std::numeric_limits<double>::infinity();
    for (std::size_t i : reported) floor = std::min(floor, out.peak[i]);
    for (std::size_t i : traced) floor = std::min(floor, out.peak[i] / 2.0);
    if (out.steps_marched == steps && va == opt.aggressor.vdd && v_max < floor)
      out.steps_marched = step;
  }
  for (std::size_t k = 0; k < traced.size(); ++k) {
    const double half = out.peak[traced[k]] / 2.0;
    if (half <= 0.0) continue;
    std::size_t above = 0;
    for (double x : trace[k])
      if (x >= half) ++above;
    out.width[traced[k]] = static_cast<double>(above) * h;
  }
  return out;
}

std::vector<std::size_t> leaf_sims(const sim::StageCircuit& c,
                                   const rct::Stage& st) {
  std::vector<std::size_t> out;
  for (const rct::StageSink& s : st.sinks)
    out.push_back(c.sim_node_of.at(s.node));
  return out;
}

// golden_analyze (and, with `stage_peaks`, golden_stage_peaks per stage)
// against the reference: identical leaf peaks, widths and step counts, or —
// with check_convergence — the same ConvergenceError the reference's
// leaf-order dt/2 check predicts. Returns the report's (marched, horizon)
// step counts.
std::pair<std::size_t, std::size_t> expect_golden_matches_reference(
    const rct::RoutingTree& tree, const rct::BufferAssignment& buffers,
    const lib::BufferLibrary& lib, const sim::GoldenOptions& opt,
    bool stage_peaks, const std::string& what) {
  std::vector<std::pair<double, double>> leaves;  // peak, width
  std::pair<std::size_t, std::size_t> steps{0, 0};  // marched, horizon
  bool converged = true;
  rct::NodeId bad_node;
  double bad_coarse = 0.0, bad_fine = 0.0;
  for (const rct::Stage& st : rct::decompose(tree, buffers, lib)) {
    const auto c = sim::build_stage_circuit(tree, st, opt.coupling_ratio,
                                            opt.section_length);
    const std::vector<std::size_t> sims = leaf_sims(c, st);
    const RefMarch ref = reference_march(c, st.driver_resistance, opt,
                                         opt.steps_per_rise, sims, sims);
    for (std::size_t i : sims) leaves.emplace_back(ref.peak[i], ref.width[i]);
    steps.first += ref.steps_marched;
    steps.second += ref.steps_horizon;
    if (opt.check_convergence && converged) {
      const RefMarch fine = reference_march(c, st.driver_resistance, opt,
                                            2.0 * opt.steps_per_rise, sims, {});
      steps.first += fine.steps_marched;
      steps.second += fine.steps_horizon;
      for (std::size_t k = 0; k < sims.size() && converged; ++k) {
        const double a = ref.peak[sims[k]];
        const double b = fine.peak[sims[k]];
        if (std::abs(a - b) >
            std::max(sim::kConvergenceAtol, sim::kConvergenceRtol * b)) {
          converged = false;
          bad_node = st.sinks[k].node;
          bad_coarse = a;
          bad_fine = b;
        }
      }
    }
    if (!stage_peaks || !converged) continue;
    const auto peaks = sim::golden_stage_peaks(tree, st, opt);
    EXPECT_EQ(peaks.size(), st.nodes.size()) << what;
    for (const auto& [id, pk] : peaks)
      EXPECT_EQ(pk, ref.peak[c.sim_node_of.at(id)]) << what << " node " << id;
  }
  try {
    const sim::GoldenReport rep = sim::golden_analyze(tree, buffers, lib, opt);
    EXPECT_TRUE(converged) << what << ": reference did not converge";
    EXPECT_EQ(rep.leaves.size(), leaves.size()) << what;
    for (std::size_t k = 0; k < rep.leaves.size() && k < leaves.size(); ++k) {
      EXPECT_EQ(rep.leaves[k].peak, leaves[k].first) << what << " leaf " << k;
      EXPECT_EQ(rep.leaves[k].width, leaves[k].second) << what << " leaf " << k;
    }
    EXPECT_EQ(rep.steps_marched, steps.first) << what;
    EXPECT_EQ(rep.steps_horizon, steps.second) << what;
    return {rep.steps_marched, rep.steps_horizon};
  } catch (const sim::ConvergenceError& e) {
    EXPECT_FALSE(converged) << what << ": " << e.what();
    EXPECT_EQ(e.node, bad_node) << what;
    EXPECT_EQ(e.coarse_peak, bad_coarse) << what;
    EXPECT_EQ(e.fine_peak, bad_fine) << what;
  }
  return {0, 0};
}

class GoldenEarlyExit : public ::testing::Test {
 protected:
  struct Net {
    rct::RoutingTree tree;
    core::ToolResult result;
  };

  static void SetUpTestSuite() {
    const auto lib = lib::default_library();
    netgen::TestbenchOptions gen;
    gen.net_count = 100;
    gen.seed = 9851;
    nets_ = new std::vector<Net>();
    for (auto& g : netgen::generate_testbench(lib, gen)) {
      core::ToolResult res = core::run_buffopt(g.tree, lib);
      nets_->push_back({std::move(g.tree), std::move(res)});
    }
  }
  static void TearDownTestSuite() {
    delete nets_;
    nets_ = nullptr;
  }

  // Runs the oracle on the first `count` nets, unbuffered and buffered;
  // returns the summed (marched, horizon) step counts.
  static std::pair<std::size_t, std::size_t> check(
      const sim::GoldenOptions& opt, std::size_t count,
      const std::string& what, bool stage_peaks = false) {
    const lib::BufferLibrary lib = lib::default_library();
    std::pair<std::size_t, std::size_t> steps{0, 0};
    for (std::size_t i = 0; i < count && i < nets_->size(); ++i) {
      const Net& net = (*nets_)[i];
      const std::string tag = what + " net " + std::to_string(i);
      const auto a = expect_golden_matches_reference(
          net.tree, rct::BufferAssignment{}, lib, opt, stage_peaks,
          tag + " unbuffered");
      const auto b = expect_golden_matches_reference(
          net.result.tree, net.result.vg.buffers, lib, opt, stage_peaks,
          tag + " buffered");
      steps.first += a.first + b.first;
      steps.second += a.second + b.second;
    }
    return steps;
  }

  static std::vector<Net>* nets_;
};

std::vector<GoldenEarlyExit::Net>* GoldenEarlyExit::nets_ = nullptr;

TEST_F(GoldenEarlyExit, BitIdenticalToFullHorizonMarch) {
  const auto opt = sim::golden_options_from(lib::default_technology());
  const auto [marched, horizon] = check(opt, 100, "default", true);
  EXPECT_LT(marched, horizon / 2) << "the early exit should skip most steps";
}

TEST_F(GoldenEarlyExit, BitIdenticalWithConvergenceCheck) {
  auto opt = sim::golden_options_from(lib::default_technology());
  opt.check_convergence = true;
  check(opt, 100, "convergence", true);
}

TEST_F(GoldenEarlyExit, BitIdenticalAcrossStepSizes) {
  for (double spr : {2.0, 50.0}) {
    auto opt = sim::golden_options_from(lib::default_technology());
    opt.steps_per_rise = spr;
    check(opt, 100, "steps_per_rise " + std::to_string(spr));
    opt.check_convergence = true;  // coarse steps exercise the throw path
    check(opt, 100, "convergence steps_per_rise " + std::to_string(spr));
  }
}

// The last two variants run on a quarter of the nets: nothing exits early
// without coupling, so each net costs three full-horizon marches.
TEST_F(GoldenEarlyExit, NoCouplingMarchesTheFullHorizon) {
  // Zero peaks never clear the strict `<` test, so nothing exits early.
  auto opt = sim::golden_options_from(lib::default_technology());
  opt.coupling_ratio = 0.0;
  const auto [marched, horizon] = check(opt, 25, "no coupling");
  EXPECT_EQ(marched, horizon);
}

TEST_F(GoldenEarlyExit, DelayedAggressorWaitsForTheFlatRamp) {
  // Before t0 every voltage is 0 < any peak; an exit there would be wrong.
  auto opt = sim::golden_options_from(lib::default_technology());
  opt.aggressor.t0 = 0.4 * ns;
  const auto [marched, horizon] = check(opt, 25, "t0 > 0");
  EXPECT_LT(marched, horizon);
}


// --- the lane march -------------------------------------------------------------
//
// march_stages steps up to kMarchLanes stages in lockstep and refills a lane
// as soon as its stage exits. Whatever pool a stage lands in, every number
// must equal the one-stage reference march bit for bit.

// A stage to march together with what the reference says it must give.
struct LaneCase {
  sim::StageMarch job;
  RefMarch want;
  std::string what;
};

void expect_march_matches(const sim::MarchResult& got, const LaneCase& c,
                          const std::string& pool) {
  const std::string what = c.what + " in " + pool;
  for (std::size_t i : c.job.peak_nodes)
    EXPECT_EQ(got.peak[i], c.want.peak[i]) << what << " peak of " << i;
  for (std::size_t i : c.job.trace_nodes) {
    EXPECT_EQ(got.peak[i], c.want.peak[i]) << what << " peak of " << i;
    EXPECT_EQ(got.width[i], c.want.width[i]) << what << " width of " << i;
  }
  EXPECT_EQ(got.steps_marched, c.want.steps_marched) << what;
  EXPECT_EQ(got.steps_horizon, c.want.steps_horizon) << what;
}

TEST(GoldenLanes, PooledMarchMatchesReferenceInAnyPool) {
  const lib::BufferLibrary lib = lib::default_library();
  const sim::GoldenOptions opt =
      sim::golden_options_from(lib::default_technology());
  netgen::TestbenchOptions gen;
  gen.net_count = 12;
  gen.seed = 77;
  std::vector<rct::RoutingTree> trees;
  std::vector<core::ToolResult> results;
  for (auto& g : netgen::generate_testbench(lib, gen)) {
    results.push_back(core::run_buffopt(g.tree, lib));
    trees.push_back(std::move(g.tree));
  }
  const rct::BufferAssignment none;

  // Every stage of every net, unbuffered and buffered, at the configured
  // dt and at dt/2 (the convergence rerun: leaf peaks only, no traces);
  // the first stages again without coupling (zero peaks: no early exit);
  // and single-node stages.
  std::deque<sim::StageCircuit> circuits;
  std::vector<LaneCase> cases;
  auto add = [&](const sim::StageCircuit& c, double r_drv, double spr,
                 std::vector<std::size_t> reported,
                 std::vector<std::size_t> traced, const std::string& what) {
    LaneCase lc{{&c, r_drv, spr, std::move(reported), std::move(traced)},
                {},
                what};
    lc.want = reference_march(c, r_drv, opt, spr, lc.job.peak_nodes,
                              lc.job.trace_nodes);
    cases.push_back(std::move(lc));
  };
  for (std::size_t i = 0; i < trees.size(); ++i) {
    for (const bool buffered : {false, true}) {
      const rct::RoutingTree& t = buffered ? results[i].tree : trees[i];
      const auto stages = rct::decompose(
          t, buffered ? results[i].vg.buffers : none, lib);
      for (std::size_t s = 0; s < stages.size(); ++s) {
        const rct::Stage& st = stages[s];
        const std::string what = "net " + std::to_string(i) +
                                 (buffered ? " buffered" : " unbuffered") +
                                 " stage " + std::to_string(s);
        const auto& c = circuits.emplace_back(sim::build_stage_circuit(
            t, st, opt.coupling_ratio, opt.section_length));
        const std::vector<std::size_t> leaves = leaf_sims(c, st);
        add(c, st.driver_resistance, opt.steps_per_rise, leaves, leaves, what);
        add(c, st.driver_resistance, 2.0 * opt.steps_per_rise, leaves, {},
            what + " dt/2");
        if (s == 0) {
          const auto& quiet = circuits.emplace_back(sim::build_stage_circuit(
              t, st, 0.0, opt.section_length));
          add(quiet, st.driver_resistance, opt.steps_per_rise, leaves, leaves,
              what + " no coupling");
        }
      }
    }
  }
  for (const double couple : {0.0, 20e-15}) {
    sim::StageCircuit& one = circuits.emplace_back();
    one.parent = {0};
    one.branch_g = {0.0};
    one.cap_ground = {15e-15};
    one.cap_couple = {couple};
    add(one, 150.0, opt.steps_per_rise, {0}, {0},
        "single node, coupling " + std::to_string(couple));
  }
  std::size_t zero_peaks = 0;
  for (const LaneCase& c : cases) {
    zero_peaks += c.want.peak[c.job.peak_nodes[0]] == 0.0 ? 1 : 0;
    EXPECT_LE(c.want.steps_marched, c.want.steps_horizon);
  }
  EXPECT_GE(zero_peaks, trees.size()) << "zero-coupling stages are covered";

  // Each stage alone.
  for (const LaneCase& c : cases) {
    const auto got = sim::march_stages({&c.job, 1}, opt);
    expect_march_matches(got.front(), c, "a pool of one");
  }
  // Shuffled pools of 1 .. kMarchLanes + 3 stages from different nets.
  util::Rng rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t size = 1 + static_cast<std::size_t>(trial) %
                                     (sim::kMarchLanes + 3);
    std::vector<std::size_t> pick(cases.size());
    for (std::size_t k = 0; k < pick.size(); ++k) pick[k] = k;
    for (std::size_t k = pick.size() - 1; k > 0; --k)
      std::swap(pick[k], pick[static_cast<std::size_t>(
                             rng.uniform_int(0, static_cast<int>(k)))]);
    pick.resize(size);
    std::vector<sim::StageMarch> pool;
    for (std::size_t k : pick) pool.push_back(cases[k].job);
    const auto got = sim::march_stages(pool, opt);
    ASSERT_EQ(got.size(), size);
    for (std::size_t k = 0; k < size; ++k)
      expect_march_matches(got[k], cases[pick[k]],
                           "pool " + std::to_string(trial) + " of " +
                               std::to_string(size));
  }

  // Whole nets: each alone, then all of them pooled in shuffled order.
  std::vector<sim::GoldenNet> nets;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    nets.push_back({&trees[i], &none, &lib});
    nets.push_back({&results[i].tree, &results[i].vg.buffers, &lib});
  }
  for (std::size_t k = nets.size() - 1; k > 0; --k)
    std::swap(nets[k], nets[static_cast<std::size_t>(
                           rng.uniform_int(0, static_cast<int>(k)))]);
  const auto pooled = sim::golden_analyze(nets, opt);
  ASSERT_EQ(pooled.size(), nets.size());
  for (std::size_t k = 0; k < nets.size(); ++k) {
    const sim::GoldenReport alone =
        sim::golden_analyze(*nets[k].tree, *nets[k].buffers, lib, opt);
    const auto* got = std::get_if<sim::GoldenReport>(&pooled[k]);
    ASSERT_NE(got, nullptr) << "net " << k;
    ASSERT_EQ(got->leaves.size(), alone.leaves.size()) << "net " << k;
    for (std::size_t l = 0; l < alone.leaves.size(); ++l) {
      EXPECT_EQ(got->leaves[l].node, alone.leaves[l].node);
      EXPECT_EQ(got->leaves[l].peak, alone.leaves[l].peak) << "net " << k;
      EXPECT_EQ(got->leaves[l].width, alone.leaves[l].width) << "net " << k;
    }
    EXPECT_EQ(got->steps_marched, alone.steps_marched) << "net " << k;
    EXPECT_EQ(got->steps_horizon, alone.steps_horizon) << "net " << k;
  }
}

TEST(GoldenLanes, FailingNetInAWorkloadChunkLeavesItsNeighboursAlone) {
  // At 7 steps per rise 17 of these 60 nets fail the dt/2 check. One of
  // them sits in the middle of a run_workload chunk of passing nets; only it
  // may report not_converged, and every report must equal its solo verify.
  const lib::BufferLibrary lib = lib::default_library();
  signoff::SignoffOptions so;
  so.golden = sim::golden_options_from(lib::default_technology());
  so.golden.check_convergence = true;
  so.golden.steps_per_rise = 7.0;
  netgen::TestbenchOptions gen;
  gen.net_count = 60;
  gen.seed = 9851;
  std::vector<batch::BatchNet> all;
  std::vector<core::ToolResult> all_results;
  std::vector<std::string> all_solo;
  std::optional<std::size_t> failing;
  std::vector<std::size_t> passing;
  for (auto& g : netgen::generate_testbench(lib, gen)) {
    core::ToolResult r = core::run_buffopt(g.tree, lib);
    const signoff::SignoffReport solo =
        signoff::verify_result(g.name, r, lib, {}, so);
    const bool bad = solo.count(signoff::ViolationKind::NotConverged) > 0;
    if (bad && !failing) failing = all.size();
    if (!bad) passing.push_back(all.size());
    all_solo.push_back(signoff::to_json(solo));
    all.push_back({g.name, std::move(g.tree)});
    all_results.push_back(std::move(r));
  }
  ASSERT_TRUE(failing.has_value()) << "no net fails at this step size";
  ASSERT_GE(passing.size(), 31u);

  // 32 nets, two workload chunks; the failing net is the ninth.
  std::vector<std::size_t> order(passing.begin(), passing.begin() + 31);
  order.insert(order.begin() + 8, *failing);
  std::vector<batch::BatchNet> nets;
  std::vector<core::ToolResult> results;
  for (std::size_t i : order) {
    nets.push_back(all[i]);
    results.push_back(all_results[i]);
  }
  for (const std::size_t threads : {1u, 3u}) {
    signoff::WorkloadOptions wo;
    wo.threads = threads;
    wo.signoff = so;
    const signoff::WorkloadSignoff w =
        signoff::run_workload(nets, results, lib, wo);
    ASSERT_EQ(w.reports.size(), order.size());
    EXPECT_EQ(w.by_kind[static_cast<std::size_t>(
                  signoff::ViolationKind::NotConverged)],
              1u);
    for (std::size_t k = 0; k < order.size(); ++k)
      EXPECT_EQ(signoff::to_json(w.reports[k]), all_solo[order[k]])
          << "threads " << threads << " position " << k;
  }
}

}  // namespace
