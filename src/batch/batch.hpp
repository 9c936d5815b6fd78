// Parallel batch optimization engine.
//
// The paper's experiments run BuffOpt/DelayOpt over thousands of nets one at
// a time; each net's DP is completely independent of every other's, so the
// workload is embarrassingly parallel across nets. BatchEngine runs the full
// core::run_buffopt / run_delayopt pipeline over a vector of nets on a
// fixed-size worker pool.
//
// Determinism guarantee: workers claim net indices from a shared atomic
// counter and write each result into the slot of its input index. Every
// per-net computation is a pure function of that net (the pipeline copies
// its input tree and shares only immutable state — the buffer library and
// the options), so results[i] is bit-identical for ANY thread count and ANY
// schedule, and the aggregated VgStats counters are schedule-independent
// (they are summed serially, in index order, after the pool joins). Only
// wall-clock fields (ToolResult::optimize_seconds,
// BatchSummary::wall_seconds / dp_seconds) vary run to run.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/tool.hpp"
#include "netgen/netgen.hpp"
#include "util/stats.hpp"

namespace nbuf::obs {
class MetricsRegistry;
}

namespace nbuf::batch {

// The engine's fan-out primitive, exposed for other per-net passes (the
// signoff verifier runs on it too): calls fn(i) exactly once for every
// i in [0, count) on up to `threads` workers (0 = hardware concurrency).
// Indices are claimed from a shared atomic counter, so any fn that writes
// only into slot i of a pre-sized output is deterministic for every thread
// count and schedule. The first exception any worker throws is rethrown
// after the pool drains and joins.
void parallel_for_index(std::size_t count, std::size_t threads,
                        const std::function<void(std::size_t)>& fn);

enum class BatchMode {
  BuffOpt,   // Problem 3: fewest buffers meeting noise and timing
  DelayOpt,  // delay-only baseline, capped at `max_buffers`
};

struct BatchOptions {
  std::size_t threads = 0;  // 0 = std::thread::hardware_concurrency()
  BatchMode mode = BatchMode::BuffOpt;
  std::size_t max_buffers = 24;  // DelayOpt cap (also forwarded to the DP)
  core::ToolOptions tool;        // segmenting + Van Ginneken knobs
};

// One unit of work: a named routing tree.
struct BatchNet {
  std::string name;
  rct::RoutingTree tree;
};

// Schedule-independent aggregates over one batch run.
struct BatchSummary {
  std::size_t net_count = 0;
  std::size_t feasible = 0;            // nets whose chosen solution exists
  std::size_t noise_clean_before = 0;  // unbuffered metric already clean
  std::size_t noise_clean_after = 0;
  std::size_t timing_met = 0;
  std::size_t buffers_inserted = 0;  // total over all nets
  util::VgStats stats;               // aggregated DP counters
  double wall_seconds = 0.0;         // end-to-end batch wall time
  double dp_seconds = 0.0;           // sum of per-net DP times (CPU-ish)

  [[nodiscard]] double nets_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(net_count) / wall_seconds
               : 0.0;
  }
};

struct BatchResult {
  // results[i] is the pipeline output for nets[i] — same order as the
  // input, independent of thread schedule.
  std::vector<core::ToolResult> results;
  BatchSummary summary;
};

class BatchEngine {
 public:
  explicit BatchEngine(BatchOptions options = {});

  // Runs the configured pipeline over every net. Throws (after draining the
  // pool) the first exception any worker hit, if any.
  [[nodiscard]] BatchResult run(const std::vector<BatchNet>& nets,
                                const lib::BufferLibrary& lib) const;

  // The worker count a run() will actually use.
  [[nodiscard]] std::size_t thread_count() const;

 private:
  BatchOptions opt_;
};

// Folds a batch summary into a MetricsRegistry: net/feasibility totals and
// the aggregated VgStats DP counters as "batch.*" / "vg.*" counters
// (schedule-independent), wall times and throughput as gauges.
void record_metrics(obs::MetricsRegistry& reg, const BatchSummary& summary);

// Adapters for the two workload sources the CLI accepts.
[[nodiscard]] std::vector<BatchNet> from_generated(
    std::vector<netgen::GeneratedNet> nets);
// Loads every "*.net" file of `dir` in lexicographic filename order.
[[nodiscard]] std::vector<BatchNet> load_directory(
    const std::string& dir, const lib::BufferLibrary& lib);

}  // namespace nbuf::batch
