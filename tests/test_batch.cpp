// Batch engine: determinism across thread counts, index-keyed ordering,
// schedule-independent VgStats aggregates, and error propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "batch/batch.hpp"
#include "netgen/netgen.hpp"

namespace {

using namespace nbuf;

const lib::BufferLibrary kLib = lib::default_library();

std::vector<batch::BatchNet> testbench(std::size_t count,
                                       std::uint64_t seed) {
  netgen::TestbenchOptions o;
  o.net_count = count;
  o.seed = seed;
  return batch::from_generated(netgen::generate_testbench(kLib, o));
}

// Canonical, order-independent view of one solution.
std::vector<std::pair<unsigned, unsigned>> sorted_buffers(
    const core::ToolResult& r) {
  std::vector<std::pair<unsigned, unsigned>> out;
  for (const auto& [node, type] : r.vg.buffers.entries())
    out.emplace_back(node.value(), type.value());
  std::sort(out.begin(), out.end());
  return out;
}

// Every deterministic field of two per-net results must agree exactly —
// bit-identical, not approximately (only wall times may differ).
void expect_identical(const core::ToolResult& a, const core::ToolResult& b,
                      std::size_t net_index) {
  SCOPED_TRACE("net " + std::to_string(net_index));
  EXPECT_EQ(sorted_buffers(a), sorted_buffers(b));
  EXPECT_EQ(a.vg.feasible, b.vg.feasible);
  EXPECT_EQ(a.vg.timing_met, b.vg.timing_met);
  EXPECT_EQ(a.vg.buffer_count, b.vg.buffer_count);
  EXPECT_EQ(a.vg.slack, b.vg.slack);  // exact, not EXPECT_DOUBLE_EQ
  EXPECT_EQ(a.noise_after.worst_slack, b.noise_after.worst_slack);
  EXPECT_EQ(a.noise_after.violation_count, b.noise_after.violation_count);
  EXPECT_EQ(a.timing_after.worst_slack, b.timing_after.worst_slack);
  EXPECT_EQ(a.timing_after.max_delay, b.timing_after.max_delay);
  EXPECT_TRUE(a.vg.stats.same_counters(b.vg.stats));
}

TEST(Batch, EightThreadsBitIdenticalToSerial) {
  const auto nets = testbench(200, 2026);

  batch::BatchOptions serial;
  serial.threads = 1;
  batch::BatchOptions parallel = serial;
  parallel.threads = 8;

  const auto rs = batch::BatchEngine(serial).run(nets, kLib);
  const auto rp = batch::BatchEngine(parallel).run(nets, kLib);

  ASSERT_EQ(rs.results.size(), nets.size());
  ASSERT_EQ(rp.results.size(), nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i)
    expect_identical(rs.results[i], rp.results[i], i);

  // Aggregates are schedule-independent: identical counters and counts.
  EXPECT_TRUE(rs.summary.stats.same_counters(rp.summary.stats));
  EXPECT_EQ(rs.summary.feasible, rp.summary.feasible);
  EXPECT_EQ(rs.summary.noise_clean_after, rp.summary.noise_clean_after);
  EXPECT_EQ(rs.summary.timing_met, rp.summary.timing_met);
  EXPECT_EQ(rs.summary.buffers_inserted, rp.summary.buffers_inserted);
  EXPECT_EQ(rs.summary.net_count, rp.summary.net_count);
}

TEST(Batch, ResultsAreKeyedByInputIndex) {
  // results[i] must equal running the pipeline on nets[i] alone, proving
  // output order is the input order regardless of which worker ran what.
  const auto nets = testbench(40, 7);
  batch::BatchOptions opt;
  opt.threads = 5;  // deliberately not a divisor of the net count
  const auto res = batch::BatchEngine(opt).run(nets, kLib);
  ASSERT_EQ(res.results.size(), nets.size());
  core::ToolOptions tool;
  tool.vg.max_buffers = opt.max_buffers;
  for (const std::size_t i : {std::size_t{0}, std::size_t{17},
                              std::size_t{39}}) {
    const auto solo = core::run_buffopt(nets[i].tree, kLib, tool);
    expect_identical(solo, res.results[i], i);
  }
}

TEST(Batch, DelayOptModeMatchesSerialTool) {
  const auto nets = testbench(12, 99);
  batch::BatchOptions opt;
  opt.threads = 4;
  opt.mode = batch::BatchMode::DelayOpt;
  opt.max_buffers = 8;
  const auto res = batch::BatchEngine(opt).run(nets, kLib);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const auto solo = core::run_delayopt(nets[i].tree, kLib, 8);
    expect_identical(solo, res.results[i], i);
  }
}

TEST(Batch, SummaryCountsAreConsistent) {
  const auto nets = testbench(30, 31);
  const auto res = batch::BatchEngine(batch::BatchOptions{}).run(nets, kLib);
  const batch::BatchSummary& s = res.summary;
  EXPECT_EQ(s.net_count, nets.size());
  // The netgen workload is constructed so BuffOpt always succeeds.
  EXPECT_EQ(s.feasible, nets.size());
  EXPECT_EQ(s.noise_clean_after, nets.size());
  std::size_t buffers = 0;
  util::VgStats agg;
  for (const auto& r : res.results) {
    buffers += r.vg.buffer_count;
    agg += r.vg.stats;
  }
  EXPECT_EQ(s.buffers_inserted, buffers);
  EXPECT_TRUE(s.stats.same_counters(agg));
  EXPECT_GT(s.stats.candidates_generated, 0u);
  EXPECT_GE(s.stats.candidates_generated,
            s.stats.pruned_inferior + s.stats.pruned_infeasible);
  EXPECT_GT(s.wall_seconds, 0.0);
  EXPECT_GT(s.nets_per_second(), 0.0);
}

TEST(Batch, WorkerExceptionPropagates) {
  auto nets = testbench(6, 13);
  batch::BatchOptions opt;
  opt.threads = 3;
  opt.max_buffers = 0;  // rejected by the DP's precondition check
  EXPECT_THROW((void)batch::BatchEngine(opt).run(nets, kLib),
               std::invalid_argument);
}

TEST(Batch, EmptyInputAndMoreThreadsThanNets) {
  const auto none = batch::BatchEngine(batch::BatchOptions{})
                        .run(std::vector<batch::BatchNet>{}, kLib);
  EXPECT_TRUE(none.results.empty());
  EXPECT_EQ(none.summary.net_count, 0u);

  const auto nets = testbench(2, 3);
  batch::BatchOptions opt;
  opt.threads = 16;
  const auto res = batch::BatchEngine(opt).run(nets, kLib);
  ASSERT_EQ(res.results.size(), 2u);
  EXPECT_EQ(res.summary.feasible, 2u);
}

TEST(Batch, ParallelForIndexStressUnderUnevenLoad) {
  // TSan-targeted stress (the CI thread-sanitizer lane runs this binary):
  // task sizes vary by two orders of magnitude so fast workers lap slow
  // ones and index claims interleave heavily; the shared atomic counter
  // exercises the reduction pattern and the per-index slots pin the
  // exactly-once claim contract.
  constexpr std::size_t kCount = 400;
  const auto task = [](std::size_t i) {
    std::uint32_t acc = 1;
    const std::size_t spin = (i % 17) * (i % 17) * 50 + 1;
    for (std::size_t k = 0; k < spin; ++k)
      acc = acc * 1664525u + static_cast<std::uint32_t>(i);
    return acc;
  };
  std::vector<std::uint32_t> slot(kCount, 0);
  std::atomic<std::size_t> done{0};
  batch::parallel_for_index(kCount, 8, [&](std::size_t i) {
    slot[i] = task(i);
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), kCount);
  for (std::size_t i = 0; i < kCount; ++i)
    ASSERT_EQ(slot[i], task(i)) << "slot " << i;
}

// Negative control for the TSan lane: building this file with
// -DNBUF_TSAN_RACE_DEMO plants a deliberately unsynchronized increment that
// a -fsanitize=thread build must report as a data race (manual check; see
// docs/quality.md). Compiled out of normal builds so the suite stays green.
#ifdef NBUF_TSAN_RACE_DEMO
TEST(Batch, ParallelForIndexRaceDemo) {
  std::size_t racy = 0;
  batch::parallel_for_index(4096, 8, [&](std::size_t) { ++racy; });
  EXPECT_GT(racy, 0u);
}
#endif

}  // namespace
