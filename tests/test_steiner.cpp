#include <gtest/gtest.h>

#include <algorithm>

#include "common/test_nets.hpp"
#include "steiner/steiner.hpp"
#include "util/rng.hpp"

namespace {

using namespace nbuf;
using namespace nbuf::units;
using steiner::Point;
using test::default_driver;
using test::default_sink;

std::vector<steiner::PinSpec> pins_at(std::initializer_list<Point> pts) {
  std::vector<steiner::PinSpec> pins;
  int i = 0;
  for (Point p : pts) {
    steiner::PinSpec s;
    s.at = p;
    s.info = default_sink(10 * fF, 0.0, 0.8,
                          ("p" + std::to_string(i++)).c_str());
    pins.push_back(s);
  }
  return pins;
}

TEST(Manhattan, Basics) {
  EXPECT_DOUBLE_EQ(steiner::manhattan({0, 0}, {3, 4}), 7.0);
  EXPECT_DOUBLE_EQ(steiner::manhattan({-1, 2}, {1, -2}), 6.0);
  EXPECT_DOUBLE_EQ(steiner::manhattan({5, 5}, {5, 5}), 0.0);
}

TEST(Steiner, SinglePinIsStraightRoute) {
  const auto tech = lib::default_technology();
  auto t = steiner::build_tree({0, 0}, default_driver(),
                               pins_at({{300, 400}}), tech);
  EXPECT_EQ(t.sink_count(), 1u);
  EXPECT_NEAR(t.total_wirelength(), 700.0, 1e-9);
  t.validate();
}

TEST(Steiner, AllSinksConnected) {
  const auto tech = lib::default_technology();
  auto t = steiner::build_tree(
      {0, 0}, default_driver(),
      pins_at({{1000, 0}, {500, 800}, {1500, 300}, {200, 200}}), tech);
  EXPECT_EQ(t.sink_count(), 4u);
  t.validate();  // includes reachability of every node from the source
}

TEST(Steiner, WirelengthAtLeastFarthestPin) {
  const auto tech = lib::default_technology();
  const auto pins = pins_at({{2000, 100}, {1900, 0}, {2100, 50}});
  auto t = steiner::build_tree({0, 0}, default_driver(), pins, tech);
  EXPECT_GE(t.total_wirelength() + 1e-9, 2100.0);
}

TEST(Steiner, SharingBeatsStarRouting) {
  // Three clustered far-away pins must share a trunk: total length well
  // under the sum of individual distances.
  const auto tech = lib::default_technology();
  const auto pins = pins_at({{3000, 0}, {3000, 100}, {3000, 200}});
  auto t = steiner::build_tree({0, 0}, default_driver(), pins, tech);
  double star = 0.0;
  for (const auto& p : pins) star += steiner::manhattan({0, 0}, p.at);
  EXPECT_LT(t.total_wirelength(), 0.5 * star);
}

TEST(Steiner, CollinearPinsShareTrunkExactly) {
  const auto tech = lib::default_technology();
  auto t = steiner::build_tree({0, 0}, default_driver(),
                               pins_at({{1000, 0}, {2000, 0}, {3000, 0}}),
                               tech);
  EXPECT_NEAR(t.total_wirelength(), 3000.0, 1e-6);
}

TEST(Steiner, TreeIsBinaryAfterBuild) {
  const auto tech = lib::default_technology();
  util::Rng rng(17);
  std::vector<steiner::PinSpec> pins;
  for (int i = 0; i < 12; ++i) {
    steiner::PinSpec p;
    p.at = {rng.uniform(0, 5000), rng.uniform(0, 5000)};
    p.info = default_sink(10 * fF, 0.0, 0.8,
                          ("r" + std::to_string(i)).c_str());
    pins.push_back(p);
  }
  auto t = steiner::build_tree({0, 0}, default_driver(), pins, tech);
  EXPECT_TRUE(t.is_binary());
  EXPECT_EQ(t.sink_count(), 12u);
  t.validate();
}

TEST(Steiner, ElectricalAnnotationMatchesTechnology) {
  const auto tech = lib::default_technology();
  auto t = steiner::build_tree({0, 0}, default_driver(),
                               pins_at({{1234, 0}}), tech);
  const auto sink = t.sinks().front().node;
  const auto& w = t.node(sink).parent_wire;
  EXPECT_NEAR(w.resistance, tech.wire_res(1234.0), 1e-9);
  EXPECT_NEAR(w.capacitance, tech.wire_cap(1234.0), 1e-24);
  EXPECT_NEAR(w.coupling_current, tech.wire_coupling_current(1234.0), 1e-12);
}

TEST(Steiner, RandomNetsAreValidAndBounded) {
  const auto tech = lib::default_technology();
  util::Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    const int k = rng.uniform_int(1, 15);
    std::vector<steiner::PinSpec> pins;
    double mst_upper = 0.0;  // sum of all pin distances (loose upper bound)
    for (int i = 0; i < k; ++i) {
      steiner::PinSpec p;
      p.at = {rng.uniform(0, 8000), rng.uniform(0, 8000)};
      p.info = default_sink(10 * fF, 0.0, 0.8,
                            ("t" + std::to_string(i)).c_str());
      mst_upper += steiner::manhattan({0, 0}, p.at);
      pins.push_back(p);
    }
    auto t = steiner::build_tree({0, 0}, default_driver(), pins, tech);
    t.validate();
    EXPECT_EQ(t.sink_count(), static_cast<std::size_t>(k));
    EXPECT_LE(t.total_wirelength(), mst_upper + 1e-6);
    EXPECT_TRUE(t.is_binary());
  }
}

TEST(Builders, TwoPinShape) {
  auto t = test::long_two_pin(3000.0);
  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_EQ(t.sink_count(), 1u);
  EXPECT_NEAR(t.total_wirelength(), 3000.0, 1e-9);
}

TEST(Builders, BalancedTreeShape) {
  auto t = steiner::make_balanced_tree(3, 500.0, default_driver(),
                                       default_sink(),
                                       lib::default_technology());
  EXPECT_EQ(t.sink_count(), 8u);
  EXPECT_TRUE(t.is_binary());
  // 4 + 2 + 1 internal levels... total wirelength = edges * 500:
  // level1: 2 edges, level2: 4, level3 (sinks): 8 -> 14 edges.
  EXPECT_NEAR(t.total_wirelength(), 14 * 500.0, 1e-9);
}

TEST(Builders, BalancedDepthZeroIsTwoPin) {
  auto t = steiner::make_balanced_tree(0, 750.0, default_driver(),
                                       default_sink(),
                                       lib::default_technology());
  EXPECT_EQ(t.sink_count(), 1u);
  EXPECT_NEAR(t.total_wirelength(), 750.0, 1e-9);
}

}  // namespace
