#include <gtest/gtest.h>

#include "common/test_nets.hpp"
#include "elmore/elmore.hpp"
#include "noise/devgan.hpp"
#include "seg/segment.hpp"

namespace {

using namespace nbuf;

TEST(Segment, SplitsLongWires) {
  auto t = test::long_two_pin(2600.0);
  const std::size_t added = seg::segment(t, {500.0});
  EXPECT_EQ(added, 5u);  // ceil(2600/500)=6 pieces -> 5 new nodes
  t.validate();
  for (auto id : t.preorder())
    if (id != t.source()) {
      EXPECT_LE(t.node(id).parent_wire.length, 500.0 + 1e-9);
    }
}

TEST(Segment, ShortWiresUntouched) {
  auto t = test::long_two_pin(400.0);
  EXPECT_EQ(seg::segment(t, {500.0}), 0u);
  EXPECT_EQ(t.node_count(), 2u);
}

TEST(Segment, EqualPieces) {
  auto t = test::long_two_pin(1500.0);
  seg::segment(t, {500.0});
  for (auto id : t.preorder())
    if (id != t.source()) {
      EXPECT_NEAR(t.node(id).parent_wire.length, 500.0, 1e-9);
    }
}

TEST(Segment, PreservesElectricalTotals) {
  auto t = test::long_two_pin(7321.0);
  const double r0 = 0.073 * 7321.0;
  const double wl0 = t.total_wirelength();
  const double cap0 = t.total_cap();
  const double cur0 = t.total_coupling_current();
  seg::segment(t, {333.0});
  EXPECT_NEAR(t.total_wirelength(), wl0, 1e-6);
  EXPECT_NEAR(t.total_cap(), cap0, 1e-22);
  EXPECT_NEAR(t.total_coupling_current(), cur0, 1e-12);
  double r = 0.0;
  for (auto id : t.preorder())
    if (id != t.source()) r += t.node(id).parent_wire.resistance;
  EXPECT_NEAR(r, r0, 1e-6);
}

TEST(Segment, DoesNotChangeElmoreDelay) {
  auto t1 = test::long_two_pin(5000.0);
  auto t2 = test::long_two_pin(5000.0);
  seg::segment(t2, {250.0});
  const auto d1 = elmore::analyze_unbuffered(t1);
  const auto d2 = elmore::analyze_unbuffered(t2);
  EXPECT_NEAR(d1.max_delay, d2.max_delay, d1.max_delay * 1e-9);
}

TEST(Segment, DoesNotChangeDevganNoise) {
  auto t1 = test::long_two_pin(5000.0);
  auto t2 = test::long_two_pin(5000.0);
  seg::segment(t2, {250.0});
  const auto n1 = noise::analyze_unbuffered(t1);
  const auto n2 = noise::analyze_unbuffered(t2);
  EXPECT_NEAR(n1.sinks[0].noise, n2.sinks[0].noise,
              n1.sinks[0].noise * 1e-9);
}

TEST(Segment, NewNodesAreBufferSites) {
  auto t = test::long_two_pin(2000.0);
  seg::segment(t, {500.0});
  std::size_t sites = 0;
  for (auto id : t.preorder()) {
    const auto& n = t.node(id);
    if (n.kind == rct::NodeKind::Internal && n.buffer_allowed) ++sites;
  }
  EXPECT_EQ(sites, 3u);
}

TEST(Segment, MultiSinkTreeSegmentsEveryBranch) {
  auto t = steiner::make_balanced_tree(2, 1200.0, test::default_driver(),
                                       test::default_sink(),
                                       lib::default_technology());
  seg::segment(t, {400.0});
  t.validate();
  for (auto id : t.preorder())
    if (id != t.source()) {
      EXPECT_LE(t.node(id).parent_wire.length, 400.0 + 1e-9);
    }
  EXPECT_EQ(t.sink_count(), 4u);
}

TEST(Segment, RejectsBadOptions) {
  auto t = test::long_two_pin(1000.0);
  EXPECT_THROW(seg::segment(t, {0.0}), std::invalid_argument);
}

TEST(Segment, RefusesUnboundedGrowthAndLeavesTheTreeUnchanged) {
  // Outside input sets both the wire length (.net files) and the
  // granularity (--segment, LOAD_NET): a 1e12 um wire at the default
  // 500 um, or any wire at 1e-9 um, would need billions of nodes. segment()
  // counts the pieces first and throws before it splits anything.
  struct Case {
    double length;
    double granularity;
  };
  const double room =
      static_cast<double>(seg::kMaxSegmentedNodes) - 2.0;  // two-pin tree
  for (const Case c : {Case{1e12, 500.0}, Case{2600.0, 1e-9},
                       Case{room + 2.0, 1.0}}) {  // one node over the bound
    SCOPED_TRACE("length " + std::to_string(c.length) + " granularity " +
                 std::to_string(c.granularity));
    auto t = test::long_two_pin(c.length);
    const double cap0 = t.total_cap();
    EXPECT_THROW(seg::segment(t, {c.granularity}), std::invalid_argument);
    EXPECT_EQ(t.node_count(), 2u);
    EXPECT_EQ(t.total_wirelength(), c.length);
    EXPECT_EQ(t.total_cap(), cap0);
    t.validate();
  }
}

TEST(Segment, GranularityTradeoff) {
  // Finer segmentation adds more candidate sites (quality/runtime knob of
  // Alpert-Devgan).
  auto coarse = test::long_two_pin(6000.0);
  auto fine = test::long_two_pin(6000.0);
  const auto n_coarse = seg::segment(coarse, {1000.0});
  const auto n_fine = seg::segment(fine, {200.0});
  EXPECT_GT(n_fine, n_coarse);
}

}  // namespace
