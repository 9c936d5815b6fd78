#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/test_nets.hpp"
#include "core/tool.hpp"
#include "netgen/netgen.hpp"
#include "noise/devgan.hpp"
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
    const double tol = std::max(opt.convergence_atol,
                                opt.convergence_rtol * e.fine_peak);
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
        std::max(opt.convergence_atol, opt.convergence_rtol * b)) {
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

// --- early-exit oracle ----------------------------------------------------------
//
// golden.cpp stops a stage's march once no reported peak or width can change
// any more. The reference below is the fixed-horizon march it replaced: every
// stage runs to t0 + rise + k·R_total·C_total. The two must agree bit for bit
// (EXPECT_EQ on doubles, not NEAR).

struct RefMarch {
  std::vector<double> peak;   // per sim node
  std::vector<double> width;  // per sim node; set for `traced` only
};

RefMarch reference_march(const sim::StageCircuit& c, double r_drv,
                         const sim::GoldenOptions& opt, double steps_per_rise,
                         const std::vector<std::size_t>& traced) {
  const std::size_t n = c.size();
  const double h = opt.aggressor.rise / steps_per_rise;
  double r_total = r_drv;
  double c_total = 0.0;
  for (std::size_t i = 1; i < n; ++i) r_total += 1.0 / c.branch_g[i];
  for (std::size_t i = 0; i < n; ++i) c_total += c.total_cap(i);
  const double t_end = opt.aggressor.t0 + opt.aggressor.rise +
                       opt.settle_time_constants * r_total * c_total;
  std::vector<double> extra(n, 0.0);
  extra[0] = 1.0 / r_drv;
  for (std::size_t i = 0; i < n; ++i) extra[i] += c.total_cap(i) / h;
  const sim::TreeSolver solver(c.parent, c.branch_g, extra);
  std::vector<double> v(n, 0.0), rhs(n);
  RefMarch out{std::vector<double>(n, 0.0), std::vector<double>(n, 0.0)};
  std::vector<std::vector<double>> trace(traced.size());
  const auto steps = static_cast<std::size_t>(std::ceil(t_end / h));
  double va_prev = opt.aggressor.at(0.0);
  for (std::size_t step = 1; step <= steps; ++step) {
    const double va = opt.aggressor.at(static_cast<double>(step) * h);
    const double dva = va - va_prev;
    va_prev = va;
    for (std::size_t i = 0; i < n; ++i)
      rhs[i] = c.total_cap(i) / h * v[i] + c.cap_couple[i] / h * dva;
    solver.solve(rhs);
    v = rhs;
    for (std::size_t i = 0; i < n; ++i)
      out.peak[i] = std::max(out.peak[i], std::abs(v[i]));
    for (std::size_t k = 0; k < traced.size(); ++k)
      trace[k].push_back(std::abs(v[traced[k]]));
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
// against the reference: identical leaf peaks and widths, or — with
// check_convergence — the same ConvergenceError the reference's leaf-order
// dt/2 check predicts. Returns the report's (marched, horizon) step counts.
std::pair<std::size_t, std::size_t> expect_golden_matches_reference(
    const rct::RoutingTree& tree, const rct::BufferAssignment& buffers,
    const lib::BufferLibrary& lib, const sim::GoldenOptions& opt,
    bool stage_peaks, const std::string& what) {
  std::vector<std::pair<double, double>> leaves;  // peak, width
  bool converged = true;
  rct::NodeId bad_node;
  double bad_coarse = 0.0, bad_fine = 0.0;
  for (const rct::Stage& st : rct::decompose(tree, buffers, lib)) {
    const auto c = sim::build_stage_circuit(tree, st, opt.coupling_ratio,
                                            opt.section_length);
    const std::vector<std::size_t> sims = leaf_sims(c, st);
    const RefMarch ref = reference_march(c, st.driver_resistance, opt,
                                         opt.steps_per_rise, sims);
    for (std::size_t i : sims) leaves.emplace_back(ref.peak[i], ref.width[i]);
    if (opt.check_convergence && converged) {
      const RefMarch fine = reference_march(c, st.driver_resistance, opt,
                                            2.0 * opt.steps_per_rise, {});
      for (std::size_t k = 0; k < sims.size() && converged; ++k) {
        const double a = ref.peak[sims[k]];
        const double b = fine.peak[sims[k]];
        if (std::abs(a - b) >
            std::max(opt.convergence_atol, opt.convergence_rtol * b)) {
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
    EXPECT_LE(rep.steps_marched, rep.steps_horizon) << what;
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

}  // namespace
