// Signoff subsystem: golden-vs-metric verification of optimizer output.
//
// The load-bearing acceptance test lives here: on a 200-net synthetic
// workload, every solution the optimizer calls noise-feasible must pass
// golden signoff (the Devgan metric provably upper-bounds the simulated
// peak, so metric-clean implies golden-clean), the pessimism histogram
// must be populated, and the whole WorkloadSignoff must reproduce
// bit-identically at 1 and 8 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "batch/batch.hpp"
#include "common/test_nets.hpp"
#include "core/tool.hpp"
#include "netgen/netgen.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "signoff/signoff.hpp"
#include "signoff/workload.hpp"

namespace {

using namespace nbuf;
using namespace nbuf::units;

const lib::BufferLibrary kLib = lib::default_library();

signoff::SignoffOptions default_options() {
  signoff::SignoffOptions opt;
  opt.golden = sim::golden_options_from(lib::default_technology());
  return opt;
}

// --- JsonWriter ----------------------------------------------------------

TEST(JsonWriter, NestedStructure) {
  util::JsonWriter j;
  j.begin_object();
  j.field("a", std::size_t{1});
  j.key("b");
  j.begin_array();
  j.value(true);
  j.value(std::string_view("x\"y"));
  j.null();
  j.end_array();
  j.end_object();
  EXPECT_EQ(j.str(), R"({"a":1,"b":[true,"x\"y",null]})");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  util::JsonWriter j;
  j.begin_array();
  j.value(std::numeric_limits<double>::quiet_NaN());
  j.value(std::numeric_limits<double>::infinity());
  j.value(0.5);
  j.end_array();
  EXPECT_EQ(j.str(), "[null,null,0.5]");
}

// --- single-net verify ---------------------------------------------------

TEST(Signoff, CleanBuffoptSolutionPasses) {
  auto t = test::long_two_pin(9000.0);
  // The fixture's RAT is 0 (timing-unconstrained); give the sink an
  // achievable deadline so signoff checks all three engines for real.
  rct::SinkInfo s = t.sinks().front();
  s.required_arrival = 2.0 * ns;
  t.set_sink_info(rct::SinkId{0}, s);
  const auto res = core::run_buffopt(t, kLib);
  ASSERT_TRUE(res.vg.feasible);
  const auto rep = signoff::verify_result("two_pin", res, kLib, {},
                                          default_options());
  EXPECT_TRUE(rep.pass());
  EXPECT_TRUE(rep.optimizer_feasible);
  EXPECT_EQ(rep.buffer_count, res.vg.buffer_count);
  ASSERT_FALSE(rep.leaves.empty());
  for (const auto& leaf : rep.leaves) {
    EXPECT_GE(leaf.metric_noise + 1e-9, leaf.golden_peak) << "bound broke";
    EXPECT_TRUE(leaf.pass);
  }
}

TEST(Signoff, UnbufferedViolatingNetIsFlaggedByBothEngines) {
  auto t = test::long_two_pin(9000.0);  // far beyond critical length
  const auto rep =
      signoff::verify("raw", t, {}, kLib, default_options());
  EXPECT_FALSE(rep.pass());
  EXPECT_GE(rep.count(signoff::ViolationKind::GoldenNoise), 1u);
  EXPECT_GE(rep.count(signoff::ViolationKind::MetricNoise), 1u);
  EXPECT_EQ(rep.count(signoff::ViolationKind::BoundBroken), 0u);
  EXPECT_LT(rep.worst_golden_slack, 0.0);
  EXPECT_LT(rep.worst_metric_slack, rep.worst_golden_slack)
      << "metric must be the more pessimistic engine";
}

TEST(Signoff, ToleranceConvertsViolationIntoPass) {
  auto t = test::long_two_pin(9000.0);
  auto opt = default_options();
  const auto strict = signoff::verify("strict", t, {}, kLib, opt);
  ASSERT_FALSE(strict.pass());
  // Grace larger than the worst excursion: every noise check now passes.
  opt.tol.noise_slack = -strict.worst_metric_slack + 1e-6;
  const auto lenient = signoff::verify("lenient", t, {}, kLib, opt);
  EXPECT_EQ(lenient.count(signoff::ViolationKind::GoldenNoise), 0u);
  EXPECT_EQ(lenient.count(signoff::ViolationKind::MetricNoise), 0u);
  // The tolerance relabels violations; the measured slacks are unchanged.
  EXPECT_DOUBLE_EQ(lenient.worst_golden_slack, strict.worst_golden_slack);
  EXPECT_DOUBLE_EQ(lenient.worst_metric_slack, strict.worst_metric_slack);
}

TEST(Signoff, InfeasibleResultYieldsSingleInfeasibleViolation) {
  auto t = test::long_two_pin(9000.0);
  core::ToolOptions topt;
  topt.vg.max_buffers = 24;
  auto res = core::run_buffopt(t, kLib, topt);
  res.vg.feasible = false;  // simulate a DP that found no solution
  const auto rep = signoff::verify_result("none", res, kLib, {},
                                          default_options());
  EXPECT_FALSE(rep.pass());
  EXPECT_FALSE(rep.optimizer_feasible);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_EQ(rep.violations[0].kind, signoff::ViolationKind::Infeasible);
  EXPECT_TRUE(std::isnan(rep.worst_golden_slack));
  EXPECT_EQ(rep.pessimism.samples, 0u);
}

TEST(Signoff, PessimismHistogramBinsRatios) {
  // Exactly-representable ratios, so sums are order-independent and the
  // merged stats compare bit-equal to the sequentially-built ones.
  signoff::PessimismStats s;
  s.add(0.5);    // a bound violation -> bin 0
  s.add(1.125);  // [1.00, 1.25) -> bin 1
  s.add(1.25);   // [1.25, 1.50) -> bin 2
  s.add(99.0);   // clamped into the last bin
  EXPECT_EQ(s.samples, 4u);
  EXPECT_EQ(s.bins[0], 1u);
  EXPECT_EQ(s.bins[1], 1u);
  EXPECT_EQ(s.bins[2], 1u);
  EXPECT_EQ(s.bins[signoff::PessimismStats::kBinCount - 1], 1u);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 99.0);
  EXPECT_DOUBLE_EQ(s.mean(), (0.5 + 1.125 + 1.25 + 99.0) / 4.0);

  signoff::PessimismStats a, b;
  a.add(0.5);
  a.add(1.125);
  b.add(1.25);
  b.add(99.0);
  a.merge(b);
  EXPECT_EQ(a, s);
}

TEST(Signoff, ReportJsonIsWellFormedAndLabeled) {
  auto t = test::long_two_pin(6000.0);
  const auto res = core::run_buffopt(t, kLib);
  const auto rep = signoff::verify_result("demo", res, kLib, {},
                                          default_options());
  const std::string json = signoff::to_json(rep);
  EXPECT_NE(json.find("\"net\":\"demo\""), std::string::npos);
  EXPECT_NE(json.find("\"pessimism\""), std::string::npos);
  EXPECT_NE(json.find("\"leaves\""), std::string::npos);
  // Balanced braces/brackets — the writer's nesting discipline held.
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// --- workload acceptance -------------------------------------------------

class SignoffWorkload : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    netgen::TestbenchOptions gen;
    gen.net_count = 200;
    gen.seed = 9851;
    nets_ = new std::vector<batch::BatchNet>(
        batch::from_generated(netgen::generate_testbench(kLib, gen)));
    batch::BatchOptions bopt;
    bopt.threads = 4;
    results_ = new std::vector<core::ToolResult>(
        batch::BatchEngine(bopt).run(*nets_, kLib).results);
  }
  static void TearDownTestSuite() {
    delete nets_;
    delete results_;
    nets_ = nullptr;
    results_ = nullptr;
  }
  static std::vector<batch::BatchNet>* nets_;
  static std::vector<core::ToolResult>* results_;
};

std::vector<batch::BatchNet>* SignoffWorkload::nets_ = nullptr;
std::vector<core::ToolResult>* SignoffWorkload::results_ = nullptr;

TEST_F(SignoffWorkload, EveryFeasibleSolutionPassesGoldenSignoff) {
  signoff::WorkloadOptions wopt;
  wopt.threads = 4;
  wopt.signoff = default_options();
  const auto w = signoff::run_workload(*nets_, *results_, kLib, wopt);
  ASSERT_EQ(w.net_count, 200u);
  // Theorem 1 at workload scale: whatever the metric certifies clean,
  // golden must confirm — with zero tolerance.
  EXPECT_EQ(w.feasible_golden_clean, w.feasible);
  EXPECT_GT(w.feasible, 190u) << "optimizer should solve almost every net";
  EXPECT_EQ(w.by_kind[static_cast<std::size_t>(
                signoff::ViolationKind::BoundBroken)],
            0u);
  EXPECT_EQ(w.by_kind[static_cast<std::size_t>(
                signoff::ViolationKind::NotConverged)],
            0u);
  for (const auto& rep : w.reports) {
    if (rep.optimizer_feasible &&
        rep.count(signoff::ViolationKind::MetricNoise) == 0) {
      EXPECT_EQ(rep.count(signoff::ViolationKind::GoldenNoise), 0u)
          << rep.net;
    }
  }
  // Pessimism statistics must be populated and sane: hundreds of leaves,
  // every ratio >= 1 (bin 0 empty), mean within [min, max].
  EXPECT_GT(w.pessimism.samples, 200u);
  EXPECT_EQ(w.pessimism.bins[0], 0u);
  EXPECT_GE(w.pessimism.min, 1.0);
  EXPECT_LE(w.pessimism.min, w.pessimism.mean());
  EXPECT_LE(w.pessimism.mean(), w.pessimism.max);
}

TEST_F(SignoffWorkload, DeterministicAcrossThreadCounts) {
  signoff::WorkloadOptions wopt;
  wopt.signoff = default_options();
  wopt.threads = 1;
  const auto serial = signoff::run_workload(*nets_, *results_, kLib, wopt);
  wopt.threads = 8;
  const auto parallel = signoff::run_workload(*nets_, *results_, kLib, wopt);

  ASSERT_EQ(serial.reports.size(), parallel.reports.size());
  for (std::size_t i = 0; i < serial.reports.size(); ++i)
    ASSERT_EQ(signoff::to_json(serial.reports[i]),
              signoff::to_json(parallel.reports[i]))
        << "report " << i << " differs between 1 and 8 threads";
  EXPECT_EQ(serial.passed, parallel.passed);
  EXPECT_EQ(serial.violations, parallel.violations);
  EXPECT_EQ(serial.by_kind, parallel.by_kind);
  EXPECT_EQ(serial.feasible, parallel.feasible);
  EXPECT_EQ(serial.feasible_golden_clean, parallel.feasible_golden_clean);
  EXPECT_EQ(serial.pessimism, parallel.pessimism);
  // Bit-identical, not approximately equal.
  EXPECT_EQ(serial.worst_golden_slack, parallel.worst_golden_slack);
  EXPECT_EQ(serial.worst_metric_slack, parallel.worst_metric_slack);
  EXPECT_EQ(serial.worst_timing_slack, parallel.worst_timing_slack);
  // The golden step counters, and the metrics document they feed.
  EXPECT_EQ(serial.golden_steps, parallel.golden_steps);
  EXPECT_EQ(serial.golden_steps_horizon, parallel.golden_steps_horizon);
  EXPECT_GT(serial.golden_steps, 0u);
  EXPECT_LT(serial.golden_steps, serial.golden_steps_horizon);
  obs::MetricsRegistry reg_serial, reg_parallel;
  signoff::record_metrics(reg_serial, serial);
  signoff::record_metrics(reg_parallel, parallel);
  const obs::MetricsSnapshot snap = reg_serial.snapshot();
  EXPECT_TRUE(snap.deterministic_equal(reg_parallel.snapshot()));
  std::size_t found = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "sim.golden_steps") {
      EXPECT_EQ(c.value, serial.golden_steps);
      ++found;
    } else if (c.name == "sim.golden_steps_horizon") {
      EXPECT_EQ(c.value, serial.golden_steps_horizon);
      ++found;
    }
  }
  EXPECT_EQ(found, 2u);
}

TEST_F(SignoffWorkload, WorkloadJsonCarriesSchemaAndCounts) {
  signoff::WorkloadOptions wopt;
  wopt.threads = 4;
  wopt.signoff = default_options();
  const auto w = signoff::run_workload(*nets_, *results_, kLib, wopt);
  const std::string json = signoff::to_json(w);
  EXPECT_NE(json.find("\"schema\":\"nbuf-signoff-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"nets\":200"), std::string::npos);
  EXPECT_NE(json.find("\"violations_by_kind\""), std::string::npos);
  // Step counters are metrics only; the signoff schema is unchanged.
  EXPECT_EQ(json.find("golden_steps"), std::string::npos);
  // include_leaves=false keeps the document summary-sized.
  EXPECT_EQ(json.find("\"leaves\""), std::string::npos);
  EXPECT_NE(signoff::to_json(w, true).find("\"leaves\""),
            std::string::npos);
}

}  // namespace
