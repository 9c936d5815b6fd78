#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strong_id.hpp"
#include "util/table.hpp"

namespace {

using namespace nbuf;

// --- check -----------------------------------------------------------------

TEST(Check, ExpectsThrowsInvalidArgument) {
  EXPECT_THROW(NBUF_EXPECTS(false), std::invalid_argument);
  EXPECT_NO_THROW(NBUF_EXPECTS(true));
}

TEST(Check, AssertThrowsLogicError) {
  EXPECT_THROW(NBUF_ASSERT(false), std::logic_error);
  EXPECT_NO_THROW(NBUF_ASSERT(true));
}

TEST(Check, MessageIsCarried) {
  try {
    NBUF_EXPECTS_MSG(false, "useful context");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("useful context"),
              std::string::npos);
  }
}

// --- strong ids --------------------------------------------------------------

struct TagA {};
struct TagB {};
using IdA = util::StrongId<TagA>;
using IdB = util::StrongId<TagB>;

TEST(StrongId, DefaultIsInvalid) {
  IdA id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, IdA::invalid());
}

TEST(StrongId, ValueRoundTrip) {
  IdA id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(StrongId, Ordering) {
  EXPECT_LT(IdA{1}, IdA{2});
  EXPECT_NE(IdA{1}, IdA{2});
  EXPECT_EQ(IdA{7}, IdA{7});
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<IdA, IdB>);
}

TEST(StrongId, Hashable) {
  std::set<IdA> s{IdA{1}, IdA{2}};
  EXPECT_EQ(s.size(), 2u);
  std::hash<IdA> h;
  EXPECT_EQ(h(IdA{5}), h(IdA{5}));
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, Deterministic) {
  util::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, UniformInRange) {
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  util::Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int x = rng.uniform_int(1, 4);
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 4);
    saw_lo |= x == 1;
    saw_hi |= x == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, LogUniformInRange) {
  util::Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.log_uniform(10.0, 1000.0);
    EXPECT_GE(x, 10.0);
    EXPECT_LE(x, 1000.0);
  }
}

TEST(Rng, LogUniformFavorsLowDecades) {
  util::Rng rng(11);
  int low = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i)
    if (rng.log_uniform(1.0, 100.0) < 10.0) ++low;
  // log-uniform: P(x < 10) = 0.5 over two decades.
  EXPECT_NEAR(static_cast<double>(low) / trials, 0.5, 0.05);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  util::Rng rng(5);
  const std::vector<double> w = {9.0, 1.0};
  int zero = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.weighted_index(w) == 0) ++zero;
  EXPECT_NEAR(zero / 10000.0, 0.9, 0.03);
}

TEST(Rng, ChanceBounds) {
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// --- stats -------------------------------------------------------------------

TEST(Stats, SummaryBasics) {
  const auto s = util::summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(Stats, SummaryEmpty) {
  const auto s = util::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, PercentileEndpointsAndMedian) {
  std::vector<double> xs = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(util::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 0.5), 3.0);
}

TEST(Stats, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(util::percentile({0.0, 10.0}, 0.25), 2.5);
}

// kVgStatsFields drives VgStats aggregation, comparison, printing and
// metric export. Each entry must lead to the field it names, aggregate as
// that counter means (peaks take the max, tallies add) and export under
// the field's established metric name, on its own.
TEST(Stats, VgStatsFieldTableCoversEveryField) {
  using Field = util::VgStatsField;
  // Each field by name, set to its 1-based declaration position.
  const util::VgStats distinct{
      .candidates_generated = 1, .pruned_inferior = 2,
      .pruned_infeasible = 3, .merged = 4, .peak_list_size = 5,
      .prune_calls = 6, .prune_sorts = 7, .prune_sorts_skipped = 8,
      .offset_flushes = 9, .snapshot_cands_avoided = 10, .pool_reuses = 11,
      .bp_prune_calls = 12, .bp_candidates_killed = 13, .lib_types = 14,
      .soa_flush_elems = 15, .soa_prunes_no_move = 16};
  const std::vector<std::string> declared = {
      "candidates_generated", "pruned_inferior", "pruned_infeasible",
      "merged", "peak_list_size", "prune_calls", "prune_sorts",
      "prune_sorts_skipped", "offset_flushes", "snapshot_cands_avoided",
      "pool_reuses", "bp_prune_calls", "bp_candidates_killed", "lib_types",
      "soa_flush_elems", "soa_prunes_no_move"};
  ASSERT_EQ(std::size(util::kVgStatsFields), declared.size());

  for (const Field& f : util::kVgStatsFields) {
    const std::string name(f.name);
    SCOPED_TRACE(name);
    const auto pos = std::find(declared.begin(), declared.end(), name);
    ASSERT_NE(pos, declared.end());
    EXPECT_EQ(distinct.*f.member,
              static_cast<std::size_t>(pos - declared.begin()) + 1);

    const bool peak = name == "peak_list_size" || name == "lib_types";
    const std::string metric = name == "lib_types" ? "lib.types" : "vg." + name;

    util::VgStats a, b;
    a.*f.member = 7;
    b.*f.member = 5;
    util::VgStats sum = a;
    sum += b;
    EXPECT_EQ(sum.*f.member, peak ? 7u : 12u);
    util::VgStats only = sum;
    only.*f.member = 0;
    EXPECT_TRUE(only.same_counters(util::VgStats{}));  // touched no other

    EXPECT_FALSE(a.same_counters(util::VgStats{}));
    EXPECT_TRUE(a.same_counters(a));

    bool printed = false;
    std::istringstream parts(util::format(a));
    for (std::string part; std::getline(parts, part, ',');) {
      if (part.front() == ' ') part.erase(0, 1);
      if (part == name + " 7") printed = true;
    }
    EXPECT_TRUE(printed) << util::format(a);

    // Exactly one instrument carries the value: the peak list size as a
    // histogram, the library size as a gauge, everything else a counter.
    obs::MetricsRegistry reg;
    obs::record_vg_stats(reg, a);
    const obs::MetricsSnapshot snap = reg.snapshot();
    std::vector<std::string> exported;
    for (const auto& c : snap.counters) {
      if (c.value == 0) continue;
      exported.push_back("counter " + c.name);
      EXPECT_EQ(c.value, 7u);
    }
    for (const auto& h : snap.histograms) {
      if (h.sum == 0) continue;
      exported.push_back("histogram " + h.name);
      EXPECT_EQ(h.max, 7u);
    }
    for (const auto& g : snap.gauges) {
      if (g.value == 0.0) continue;
      exported.push_back("gauge " + g.name);
      EXPECT_EQ(g.value, 7.0);
    }
    const std::string kind = name == "peak_list_size" ? "histogram"
                             : name == "lib_types"    ? "gauge"
                                                      : "counter";
    EXPECT_EQ(exported, std::vector<std::string>{kind + " " + metric});
  }
}

TEST(Stats, Histogram) {
  const auto h = util::histogram({1, 2, 2, 3, 3, 3});
  EXPECT_EQ(h.at(1), 1u);
  EXPECT_EQ(h.at(2), 2u);
  EXPECT_EQ(h.at(3), 3u);
}

// --- table -------------------------------------------------------------------

TEST(Table, RendersHeaderRuleAndRows) {
  util::Table t({"a", "bb"});
  t.add_row({"1", "2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("--"), std::string::npos);
  EXPECT_NE(out.find("1"), std::string::npos);
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Table, RejectsWrongArity) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, Formatters) {
  EXPECT_EQ(util::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(util::Table::integer(42), "42");
  EXPECT_EQ(util::Table::percent(0.0199, 2), "1.99%");
}

}  // namespace
