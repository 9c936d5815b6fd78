// Observability subsystem: metrics instruments, trace spans, the JSON
// reader, and both exporters.
//
// The property tests at the bottom re-use the batch engine's fan-out
// primitive (batch::parallel_for_index) to hammer the span and counter
// paths from many threads at once — the same pattern test_batch uses —
// and then assert the subsystem's two determinism contracts directly:
// counters/histograms bit-identical at 1 vs 8 threads, and the span
// structure signature identical across thread counts. The whole binary
// runs in the TSan CI lane, so the lock-free claims are machine-checked.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "batch/batch.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace nbuf;

// --- metrics instruments --------------------------------------------------------

TEST(Metrics, CounterAddsAndIncrements) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("a");
  c.add(40);
  c.increment();
  c.increment();
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&reg.counter("a"), &c);
}

TEST(Metrics, HistogramPowerOfTwoBuckets) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("h");
  h.observe(0);     // bucket 0 (bit_width(0) == 0)
  h.observe(1);     // bucket 1
  h.observe(2);     // bucket 2: [2, 4)
  h.observe(3);     // bucket 2
  h.observe(1024);  // bucket 11: [1024, 2048)
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(11), 1u);
  EXPECT_EQ(h.bucket(12), 0u);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("g");
  g.set(1.5);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 1.75);
}

TEST(Metrics, SnapshotRowsAreNameSorted) {
  obs::MetricsRegistry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha").add(2);
  reg.counter("mid").add(3);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "mid");
  EXPECT_EQ(snap.counters[2].name, "zeta");
}

TEST(Metrics, DeterministicEqualIgnoresGauges) {
  obs::MetricsRegistry a, b;
  a.counter("n").add(7);
  b.counter("n").add(7);
  a.histogram("h").observe(3);
  b.histogram("h").observe(3);
  a.gauge("wall").set(0.123);
  b.gauge("wall").set(9.876);  // timings differ run-to-run — excluded
  EXPECT_TRUE(a.snapshot().deterministic_equal(b.snapshot()));
  b.counter("n").increment();
  EXPECT_FALSE(a.snapshot().deterministic_equal(b.snapshot()));
}

TEST(Metrics, ConcurrentCounterLosesNothing) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("total");
  constexpr std::size_t kItems = 4096;
  batch::parallel_for_index(kItems, 8,
                            [&](std::size_t i) { c.add(i % 7 + 1); });
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kItems; ++i) expected += i % 7 + 1;
  EXPECT_EQ(c.value(), expected);
}

// --- trace spans ----------------------------------------------------------------

TEST(Trace, SpanWithoutRecordingIsNoop) {
  // Nothing active: spans must neither crash nor leak state into a
  // recording opened afterwards.
  { NBUF_TRACE_SPAN("orphan"); }
  obs::TraceRecording rec;
  const obs::TraceData data = rec.stop();
  EXPECT_EQ(data.event_count(), 0u);
}

TEST(Trace, TagExpressionLazyWhenNotRecording) {
  int evaluations = 0;
  { NBUF_TRACE_SPAN_TAGGED("lazy", ++evaluations); }
  EXPECT_EQ(evaluations, 0) << "tag expr must not run without a recording";
  obs::TraceRecording rec;
  { NBUF_TRACE_SPAN_TAGGED("lazy", ++evaluations); }
  EXPECT_EQ(evaluations, 1);
  const obs::TraceData data = rec.stop();
  ASSERT_EQ(data.event_count(), 1u);
  EXPECT_EQ(data.threads[0].events[0].tag, 1);
}

TEST(Trace, RecordingCapturesNestingDepthAndTags) {
  obs::TraceRecording rec;
  {
    NBUF_TRACE_SPAN("outer");
    {
      NBUF_TRACE_SPAN_TAGGED("inner", 17);
    }
    {
      NBUF_TRACE_SPAN("inner2");
    }
  }
  const obs::TraceData data = rec.stop();
  ASSERT_EQ(data.threads.size(), 1u);
  const std::vector<obs::TraceEvent>& ev = data.threads[0].events;
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_STREQ(ev[0].name, "outer");
  EXPECT_EQ(ev[0].depth, 0u);
  EXPECT_EQ(ev[0].tag, obs::kNoTag);
  EXPECT_STREQ(ev[1].name, "inner");
  EXPECT_EQ(ev[1].depth, 1u);
  EXPECT_EQ(ev[1].tag, 17);
  EXPECT_STREQ(ev[2].name, "inner2");
  EXPECT_EQ(ev[2].depth, 1u);
  for (const obs::TraceEvent& e : ev) EXPECT_TRUE(e.closed());
  // Events are in open order: t0 monotone within the thread.
  EXPECT_LE(ev[0].t0_ns, ev[1].t0_ns);
  EXPECT_LE(ev[1].t0_ns, ev[2].t0_ns);
  // Inclusive timing: outer covers both inner spans.
  EXPECT_GE(ev[0].dur_ns, ev[1].dur_ns + ev[2].dur_ns);
}

TEST(Trace, PhaseRecordingDropsDetailSpans) {
  obs::TraceRecording rec(obs::TraceLevel::Phase);
  {
    NBUF_TRACE_SPAN("phase");
    NBUF_TRACE_DETAIL("detail");
  }
  const obs::TraceData data = rec.stop();
  ASSERT_EQ(data.event_count(), 1u);
  EXPECT_STREQ(data.threads[0].events[0].name, "phase");
}

TEST(Trace, DetailRecordingKeepsBothLevels) {
  obs::TraceRecording rec(obs::TraceLevel::Detail);
  {
    NBUF_TRACE_SPAN("phase");
    NBUF_TRACE_DETAIL("detail");
  }
  const obs::TraceData data = rec.stop();
  EXPECT_EQ(data.event_count(), 2u);
}

TEST(Trace, SecondConcurrentRecordingThrows) {
  obs::TraceRecording rec;
  EXPECT_THROW(obs::TraceRecording second, std::invalid_argument);
  (void)rec.stop();
  // After stop a fresh recording is fine again.
  obs::TraceRecording third;
  (void)third.stop();
}

TEST(Trace, PhaseBreakdownCountsPerName) {
  obs::TraceRecording rec;
  for (int i = 0; i < 3; ++i) {
    NBUF_TRACE_SPAN("b.outer");
    NBUF_TRACE_SPAN("a.inner");
  }
  const obs::TraceData data = rec.stop();
  const std::vector<obs::PhaseRow> rows = obs::phase_breakdown(data);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "a.inner");  // name-sorted
  EXPECT_EQ(rows[0].count, 3u);
  EXPECT_EQ(rows[1].name, "b.outer");
  EXPECT_EQ(rows[1].count, 3u);
  EXPECT_GE(rows[1].seconds, rows[0].seconds);  // inclusive parent time
}

TEST(Trace, PhaseBreakdownSelfTimeSubtractsDirectChildren) {
  // Hand-built nesting with exact nanosecond durations (depth in brackets):
  //   thread 1: a[0] 1000 { b[1] 300 { c[2] 50 }, b[1] 200, c[1] 100 },
  //             a[0] 400
  //   thread 2: b[0] 700 { c[1] 20, d[1] unclosed }
  using obs::TraceEvent;
  constexpr std::uint64_t kOpen = TraceEvent::kUnclosed;
  obs::TraceData data;
  data.threads.push_back({1,
                          {{"a", 0, 1000, 0, obs::kNoTag},
                           {"b", 100, 300, 1, obs::kNoTag},
                           {"c", 150, 50, 2, obs::kNoTag},
                           {"b", 500, 200, 1, obs::kNoTag},
                           {"c", 800, 100, 1, obs::kNoTag},
                           {"a", 2000, 400, 0, obs::kNoTag}}});
  data.threads.push_back({2,
                          {{"b", 0, 700, 0, obs::kNoTag},
                           {"c", 10, 20, 1, obs::kNoTag},
                           {"d", 40, kOpen, 1, obs::kNoTag}}});
  const std::vector<obs::PhaseRow> rows = obs::phase_breakdown(data);
  ASSERT_EQ(rows.size(), 3u);  // the unclosed span has no row
  EXPECT_EQ(rows[0].name, "a");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_DOUBLE_EQ(rows[0].seconds, 1400e-9);
  EXPECT_DOUBLE_EQ(rows[0].self_seconds, (1000 - 300 - 200 - 100 + 400) * 1e-9);
  EXPECT_EQ(rows[1].name, "b");
  EXPECT_EQ(rows[1].count, 3u);
  EXPECT_DOUBLE_EQ(rows[1].seconds, 1200e-9);
  EXPECT_DOUBLE_EQ(rows[1].self_seconds, (300 - 50 + 200 + 700 - 20) * 1e-9);
  EXPECT_EQ(rows[2].name, "c");
  EXPECT_EQ(rows[2].count, 3u);
  EXPECT_DOUBLE_EQ(rows[2].seconds, 170e-9);
  EXPECT_DOUBLE_EQ(rows[2].self_seconds, 170e-9);
  // Self times partition the root spans' time.
  EXPECT_DOUBLE_EQ(rows[0].self_seconds + rows[1].self_seconds +
                       rows[2].self_seconds,
                   (1000 + 400 + 700) * 1e-9);

  obs::MetricsRegistry reg;
  obs::record_trace(reg, data);
  EXPECT_DOUBLE_EQ(reg.gauge("trace.b.self_seconds").value(),
                   rows[1].self_seconds);
}

// --- randomized multithreaded span/counter stress -------------------------------

// splitmix64: per-index seed -> deterministic pseudo-random work shape,
// independent of which worker claims the index.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void nest(int depth, std::uint64_t state, obs::Counter& work,
          obs::Histogram& sizes) {
  NBUF_TRACE_DETAIL_TAGGED("stress.nest", depth);
  work.add(static_cast<std::uint64_t>(depth));
  sizes.observe(state % 1000);
  if (depth > 1) nest(depth - 1, mix(state), work, sizes);
}

struct StressRun {
  obs::MetricsSnapshot snapshot;
  std::string signature;
  std::size_t events = 0;
};

StressRun run_stress(std::size_t threads) {
  constexpr std::size_t kItems = 512;
  obs::MetricsRegistry reg;
  obs::Counter& work = reg.counter("stress.work");
  obs::Histogram& sizes = reg.histogram("stress.sizes");
  obs::TraceRecording rec(obs::TraceLevel::Detail);
  batch::parallel_for_index(kItems, threads, [&](std::size_t i) {
    NBUF_TRACE_SPAN_TAGGED("stress.item", i);
    const std::uint64_t seed = mix(i);
    nest(1 + static_cast<int>(seed % 4), seed, work, sizes);
  });
  StressRun out;
  const obs::TraceData data = rec.stop();
  // Balanced nesting: stop() itself asserts depth 0 per buffer; double-
  // check every event closed and depths consistent with open order.
  for (const obs::ThreadTrace& t : data.threads) {
    std::uint32_t depth = 0;
    std::uint64_t last_t0 = 0;
    for (const obs::TraceEvent& e : t.events) {
      EXPECT_TRUE(e.closed());
      EXPECT_LE(e.depth, depth) << "depth can grow by at most 1";
      depth = e.depth + 1;
      EXPECT_GE(e.t0_ns, last_t0) << "t0 must be monotone per thread";
      last_t0 = e.t0_ns;
    }
  }
  out.events = data.event_count();
  out.signature = obs::structure_signature(data);
  obs::record_trace(reg, data);
  out.snapshot = reg.snapshot();
  return out;
}

TEST(TraceStress, CountersAndStructureIdenticalAcrossThreadCounts) {
  const StressRun one = run_stress(1);
  const StressRun eight = run_stress(8);

  // No lost counter updates: replay the pure per-index function serially.
  std::uint64_t expected_work = 0;
  for (std::size_t i = 0; i < 512; ++i) {
    const std::uint64_t seed = mix(i);
    for (int d = 1 + static_cast<int>(seed % 4); d > 0; --d)
      expected_work += static_cast<std::uint64_t>(d);
  }
  std::uint64_t got = 0;
  for (const auto& c : one.snapshot.counters)
    if (c.name == "stress.work") got = c.value;
  EXPECT_EQ(got, expected_work);

  EXPECT_GT(one.events, 512u);
  EXPECT_EQ(one.events, eight.events);
  // The two determinism contracts (docs/observability.md).
  EXPECT_TRUE(one.snapshot.deterministic_equal(eight.snapshot));
  EXPECT_EQ(one.signature, eight.signature);
}

// --- JSON reader ----------------------------------------------------------------

TEST(JsonReader, ParsesScalarsNestingAndEscapes) {
  const obs::JsonValue v = obs::parse_json(
      R"({"a": [1, -2.5, 3e2], "b": {"c": true, "d": null}, "s": "x\nA"})");
  ASSERT_TRUE(v.is_object());
  const obs::JsonValue& a = v.at("a");
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.array.size(), 3u);
  EXPECT_DOUBLE_EQ(a.array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a.array[1].number, -2.5);
  EXPECT_DOUBLE_EQ(a.array[2].number, 300.0);
  EXPECT_TRUE(v.at("b").at("c").boolean);
  EXPECT_TRUE(v.at("b").at("d").is_null());
  EXPECT_EQ(v.at("s").string, "x\nA");
  EXPECT_TRUE(v.has("a"));
  EXPECT_FALSE(v.has("zz"));
  // Object keys keep insertion order.
  EXPECT_EQ(v.object[0].first, "a");
  EXPECT_EQ(v.object[2].first, "s");
}

TEST(JsonReader, AtThrowsOnMissingKey) {
  const obs::JsonValue v = obs::parse_json("{\"k\": 1}");
  EXPECT_THROW((void)v.at("missing"), std::out_of_range);
  EXPECT_THROW((void)v.at("k").at("x"), std::out_of_range);  // not an object
}

TEST(JsonReader, RejectsMalformedInput) {
  const char* bad[] = {
      "",                 // empty
      "{",                // truncated object
      "[1, 2",            // truncated array
      "[1,]",             // trailing comma
      "{\"a\":}",         // missing value
      "{\"a\" 1}",        // missing colon
      "tru",              // cut-off literal
      "\"unterminated",   // unterminated string
      "\"bad\\q\"",       // unknown escape
      "1e999",            // overflows to infinity
      "{\"a\":1} tail",   // trailing content
      "\"ctl\x01char\"",  // raw control character
      "nan",              // not JSON
  };
  for (const char* text : bad)
    EXPECT_THROW((void)obs::parse_json(text), std::runtime_error)
        << "accepted: " << text;
  // Nesting depth is bounded (stack safety).
  EXPECT_THROW((void)obs::parse_json(std::string(400, '[')),
               std::runtime_error);
}

// --- exporters ------------------------------------------------------------------

obs::TraceData two_thread_trace() {
  obs::TraceRecording rec;
  batch::parallel_for_index(64, 2, [&](std::size_t i) {
    NBUF_TRACE_SPAN_TAGGED("export.item", i);
    NBUF_TRACE_SPAN("export.child");
  });
  return rec.stop();
}

TEST(Exporters, ChromeTraceSchemaIsValid) {
  const obs::TraceData data = two_thread_trace();
  const obs::JsonValue doc = obs::parse_json(obs::chrome_trace_json(data));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  const obs::JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  // One metadata event per participating thread (fast workers may claim
  // the whole queue, so 1 or 2 threads register) + all 128 spans.
  ASSERT_EQ(events.array.size(), data.threads.size() + 128u);
  std::vector<double> last_ts(data.threads.size() + 1, 0.0);
  std::size_t metadata = 0, complete = 0, tagged = 0;
  for (const obs::JsonValue& e : events.array) {
    const std::string& ph = e.at("ph").string;
    ASSERT_TRUE(e.has("pid") && e.has("tid") && e.has("name"));
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(e.at("name").string, "thread_name");
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete;
    ASSERT_TRUE(e.at("ts").is_number());
    ASSERT_TRUE(e.at("dur").is_number());
    EXPECT_GE(e.at("dur").number, 0.0);
    const auto tid = static_cast<std::size_t>(e.at("tid").number);
    ASSERT_GE(tid, 1u);
    ASSERT_LT(tid, last_ts.size());
    EXPECT_GE(e.at("ts").number, last_ts[tid]) << "ts monotone per tid";
    last_ts[tid] = e.at("ts").number;
    if (e.has("args") && e.at("args").has("tag")) ++tagged;
  }
  EXPECT_EQ(metadata, data.threads.size());
  EXPECT_EQ(complete, 128u);
  EXPECT_EQ(tagged, 64u);  // only export.item carries a tag
}

TEST(Exporters, MetricsJsonSchemaIsValid) {
  obs::MetricsRegistry reg;
  reg.counter("c.one").add(11);
  reg.histogram("h.sizes").observe(6);
  reg.histogram("h.sizes").observe(100);
  reg.gauge("g.wall").set(0.5);
  const obs::JsonValue doc =
      obs::parse_json(obs::metrics_json(reg.snapshot()));
  EXPECT_EQ(doc.at("schema").string, "nbuf-metrics-v1");
  EXPECT_DOUBLE_EQ(doc.at("counters").at("c.one").number, 11.0);
  const obs::JsonValue& h = doc.at("histograms").at("h.sizes");
  EXPECT_DOUBLE_EQ(h.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(h.at("sum").number, 106.0);
  EXPECT_DOUBLE_EQ(h.at("min").number, 6.0);
  EXPECT_DOUBLE_EQ(h.at("max").number, 100.0);
  // Power-of-two buckets keyed by bit_width: 6 -> 3, 100 -> 7.
  EXPECT_DOUBLE_EQ(h.at("buckets").at("3").number, 1.0);
  EXPECT_DOUBLE_EQ(h.at("buckets").at("7").number, 1.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("g.wall").number, 0.5);
}

TEST(Exporters, RecordTraceFoldsCountsAndTags) {
  const obs::TraceData data = two_thread_trace();
  obs::MetricsRegistry reg;
  obs::record_trace(reg, data);
  EXPECT_EQ(reg.counter("trace.export.item.count").value(), 64u);
  EXPECT_EQ(reg.counter("trace.export.child.count").value(), 64u);
  // Tags 0..63 all nonnegative -> all observed.
  EXPECT_EQ(reg.histogram("trace.export.item.tag").count(), 64u);
  EXPECT_EQ(reg.histogram("trace.export.item.tag").sum(), 64u * 63u / 2);
}

}  // namespace
