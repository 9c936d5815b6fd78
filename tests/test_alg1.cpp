#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random_library.hpp"
#include "common/test_nets.hpp"
#include "core/alg1_single_sink.hpp"
#include "core/theory.hpp"
#include "noise/devgan.hpp"
#include "sim/golden.hpp"

namespace {

using namespace nbuf;
using namespace nbuf::units;
using test::default_driver;
using test::default_sink;

const lib::BufferLibrary kLib = lib::default_library();

TEST(Alg1, CleanNetGetsNoBuffers) {
  auto t = test::long_two_pin(1000.0);
  ASSERT_EQ(noise::analyze_unbuffered(t).violation_count, 0u);
  const auto res = core::avoid_noise_single_sink(t, kLib);
  EXPECT_EQ(res.buffer_count, 0u);
  EXPECT_TRUE(res.buffers.empty());
}

TEST(Alg1, FixesViolatingTwoPin) {
  auto t = test::long_two_pin(8000.0);
  ASSERT_GT(noise::analyze_unbuffered(t).violation_count, 0u);
  const auto res = core::avoid_noise_single_sink(t, kLib);
  EXPECT_GT(res.buffer_count, 0u);
  const auto after = noise::analyze(res.tree, res.buffers, kLib);
  EXPECT_EQ(after.violation_count, 0u) << "metric violations remain";
}

TEST(Alg1, GoldenSimulationConfirmsFix) {
  auto t = test::long_two_pin(10000.0);
  const auto opt = sim::golden_options_from(lib::default_technology());
  ASSERT_GT(sim::golden_analyze_unbuffered(t, opt).violation_count, 0u);
  const auto res = core::avoid_noise_single_sink(t, kLib);
  const auto golden = sim::golden_analyze(res.tree, res.buffers, kLib, opt);
  EXPECT_EQ(golden.violation_count, 0u);
}

TEST(Alg1, FirstBufferPlacedMaximallyTight) {
  // Theorem 1: the sink-side buffer sits at its maximal distance, so the
  // noise at the sink is (numerically) exactly the margin.
  auto t = test::long_two_pin(8000.0);
  const auto res = core::avoid_noise_single_sink(t, kLib);
  ASSERT_GT(res.buffer_count, 0u);
  const auto after = noise::analyze(res.tree, res.buffers, kLib);
  EXPECT_NEAR(after.sinks[0].noise, 0.8, 1e-3);
}

TEST(Alg1, BufferCountGrowsWithLength) {
  std::size_t prev = 0;
  for (double len : {2000.0, 5000.0, 8000.0, 12000.0, 16000.0}) {
    auto t = test::long_two_pin(len);
    const auto res = core::avoid_noise_single_sink(t, kLib);
    EXPECT_GE(res.buffer_count, prev) << "length " << len;
    prev = res.buffer_count;
  }
  EXPECT_GE(prev, 3u);
}

TEST(Alg1, CountIsExactlyTheContinuousOptimum) {
  // Optimality (Theorem 3) on a uniform two-pin wire, verified against the
  // closed-form minimum: with k buffers the longest coverable length is
  //   k * S_buf + S_src
  // where S_buf is the Theorem-1 span of a buffer driving down to a 0.8 V
  // margin and S_src the span the source itself can drive. So the optimal
  // count is max(0, ceil((L - S_src) / S_buf)).
  const auto tech = lib::default_technology();
  const lib::BufferId bid = core::noise_buffer_choice(kLib);
  const auto& b = kLib.at(bid);
  const double r = tech.wire_res_per_um, i = tech.coupling_current_per_um();
  const double s_buf = *core::critical_length(b.resistance, r, i, 0.8, 0.0);
  const double s_src = *core::critical_length(150.0, r, i, 0.8, 0.0);
  for (double len : {1500.0, 4000.0, 7000.0, 10000.0, 14000.0, 20000.0}) {
    auto t = test::long_two_pin(len, 150.0);
    const auto res = core::avoid_noise_single_sink(t, kLib);
    const std::size_t expected =
        len <= s_src
            ? 0u
            : static_cast<std::size_t>(std::ceil((len - s_src) / s_buf));
    EXPECT_EQ(res.buffer_count, expected) << "length " << len;
    EXPECT_TRUE(noise::analyze(res.tree, res.buffers, kLib).clean());
  }
}

TEST(Alg1, WeakDriverGetsGuardBuffer) {
  // R_so >> R_b and a wire long enough that the driver alone violates while
  // a strong buffer right below the source would not.
  auto t = steiner::make_two_pin(2500.0, default_driver(3000.0),
                                 default_sink(), lib::default_technology());
  ASSERT_GT(noise::analyze_unbuffered(t).violation_count, 0u);
  const auto res = core::avoid_noise_single_sink(t, kLib);
  EXPECT_GE(res.buffer_count, 1u);
  const auto after = noise::analyze(res.tree, res.buffers, kLib);
  EXPECT_EQ(after.violation_count, 0u);
}

TEST(Alg1, MultiWirePathHandled) {
  // Path with heterogeneous wires (different per-unit values).
  rct::RoutingTree t;
  const auto so = t.make_source(default_driver(200.0));
  const auto tech = lib::default_technology();
  auto wire_of = [&](double len, double scale) {
    rct::Wire w;
    w.length = len;
    w.resistance = tech.wire_res(len) * scale;
    w.capacitance = tech.wire_cap(len);
    w.coupling_current = tech.wire_coupling_current(len) * scale;
    return w;
  };
  auto a = t.add_internal(so, wire_of(3000.0, 1.0), "a");
  auto bnode = t.add_internal(a, wire_of(2500.0, 1.4), "b");
  t.add_sink(bnode, wire_of(3000.0, 0.8), default_sink());
  t.validate();
  ASSERT_GT(noise::analyze_unbuffered(t).violation_count, 0u);
  const auto res = core::avoid_noise_single_sink(t, kLib);
  const auto after = noise::analyze(res.tree, res.buffers, kLib);
  EXPECT_EQ(after.violation_count, 0u);
  EXPECT_GT(res.buffer_count, 0u);
}

TEST(Alg1, SmallerResistanceBufferMeansFewerOrEqualBuffers) {
  // Remark after Theorem 3: smallest resistance maximizes spacing. Each
  // one-type library leaves Algorithm 1 a single choice.
  const auto only = [](const char* name) {
    lib::BufferLibrary one;
    one.add(kLib.at(*kLib.find(name)));
    return one;
  };
  const lib::BufferLibrary weak = only("buf_x2");     // 550 ohm
  const lib::BufferLibrary strong = only("buf_x24");  // 45 ohm
  const auto t = test::long_two_pin(12000.0);
  const auto rw = core::avoid_noise_single_sink(t, weak);
  const auto rs = core::avoid_noise_single_sink(t, strong);
  EXPECT_GT(rw.buffer_count, 0u);
  EXPECT_LE(rs.buffer_count, rw.buffer_count);
}

TEST(Alg1, DefaultChoiceIsSmallestResistanceNonInverting) {
  const auto bid = core::noise_buffer_choice(kLib);
  const auto& b = kLib.at(bid);
  EXPECT_FALSE(b.inverting);
  for (const auto& t : kLib.types())
    if (!t.inverting) { EXPECT_LE(b.resistance, t.resistance); }
}

TEST(Alg1, ChoiceAndPlacementsStableUnderLibraryPermutation) {
  // noise_buffer_choice scans in id order but must pick the same TYPE for
  // any presentation order of the same library (exact resistance ties
  // break on the unique name, not the permutation-dependent id), so the
  // full Algorithm 1 output — count, positions, chosen type — is a
  // function of the library as a SET. Includes a deliberate resistance tie
  // to force the name tie-break, the documented-vs-implemented drift this
  // test pins.
  const lib::BufferLibrary base = test::random_library(0xA191, 9, 0.4);
  std::vector<lib::BufferType> types(base.types().begin(),
                                     base.types().end());
  // Twin the type the choice rule would pick (smallest-R non-inverting):
  // same resistance, name sorting after the original, so the tie-break is
  // genuinely on the winning path in every permutation.
  std::size_t pick = types.size();
  for (std::size_t i = 0; i < types.size(); ++i)
    if (!types[i].inverting &&
        (pick == types.size() ||
         types[i].resistance < types[pick].resistance))
      pick = i;
  ASSERT_LT(pick, types.size());
  lib::BufferType twin = types[pick];
  twin.name = "twin_" + types[pick].name;
  twin.input_cap = types[pick].input_cap * 1.5;
  types.push_back(twin);

  auto t = test::long_two_pin(9000.0);
  std::string chosen_name;
  std::size_t count = 0;
  std::vector<std::uint32_t> nodes;
  const std::size_t n = types.size();
  for (std::size_t rot = 0; rot < n; ++rot) {
    SCOPED_TRACE("rotation " + std::to_string(rot));
    lib::BufferLibrary perm;
    for (std::size_t i = 0; i < n; ++i) perm.add(types[(i + rot) % n]);
    const auto res = core::avoid_noise_single_sink(t, perm);
    ASSERT_GT(res.buffer_count, 0u);
    const auto entries = res.buffers.entries();
    std::vector<std::uint32_t> got_nodes;
    for (const auto& [node, type] : entries) {
      EXPECT_EQ(perm.at(type).name, perm.at(entries.front().second).name);
      got_nodes.push_back(node.value());
    }
    std::sort(got_nodes.begin(), got_nodes.end());
    const std::string got_name = perm.at(entries.front().second).name;
    if (rot == 0) {
      chosen_name = got_name;
      count = res.buffer_count;
      nodes = got_nodes;
    } else {
      EXPECT_EQ(got_name, chosen_name);
      EXPECT_EQ(res.buffer_count, count);
      EXPECT_EQ(got_nodes, nodes);
    }
  }
}

TEST(Alg1, RejectsMultiSinkTrees) {
  const auto f = test::fig3_net();
  EXPECT_THROW((void)core::avoid_noise_single_sink(f.tree, kLib),
               std::invalid_argument);
}

TEST(Alg1, LinearScalingOfBufferSpacing) {
  // Inserted buffers on a uniform wire are evenly spaced (all interior
  // spacings equal the Theorem-1 span for a fresh buffer).
  auto t = test::long_two_pin(15000.0);
  const auto res = core::avoid_noise_single_sink(t, kLib);
  ASSERT_GE(res.buffer_count, 3u);
  // Collect buffered node positions as distance from source along the path.
  std::vector<double> pos;
  double acc = 0.0;
  rct::NodeId cur = res.tree.source();
  while (!res.tree.node(cur).children.empty()) {
    cur = res.tree.node(cur).children.front();
    acc += res.tree.node(cur).parent_wire.length;
    if (res.buffers.has_buffer(cur)) pos.push_back(acc);
  }
  ASSERT_EQ(pos.size(), res.buffer_count);
  // Forced buffers (counted from the sink side) are evenly spaced at the
  // Theorem-1 span; a driver-guard buffer near the source (Step 5) is
  // excluded from the comparison.
  std::vector<double> forced(pos.begin(), pos.end());
  if (forced.front() < 0.05 * 15000.0) forced.erase(forced.begin());
  ASSERT_GE(forced.size(), 3u);
  for (std::size_t k = 2; k < forced.size(); ++k) {
    const double gap1 = forced[k] - forced[k - 1];
    const double gap2 = forced[k - 1] - forced[k - 2];
    EXPECT_NEAR(gap1, gap2, 1e-3 * gap2);
  }
}

}  // namespace
