#include "batch/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <thread>

#include "io/netfile.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"

namespace nbuf::batch {

void parallel_for_index(std::size_t count, std::size_t threads,
                        const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  std::atomic<std::size_t> next{0};
  // The one piece of cross-worker mutable state: the first exception any
  // worker hit. Annotated so the thread-safety lane proves every touch is
  // under the lock (the final read below joins first, but still locks —
  // an uncontended acquire is cheaper than an analysis escape hatch).
  struct ErrorSlot {
    util::Mutex mu;
    std::exception_ptr first NBUF_GUARDED_BY(mu);
  } error;
  // Contract level 2: machine-check the exactly-once claim contract that
  // every determinism argument downstream (batch results, signoff reports)
  // rests on. Distinct workers only ever touch distinct elements, and the
  // final read happens after join(), so the bookkeeping itself is race-free.
  std::vector<unsigned char> claimed;
  if (NBUF_STRUCTURAL_CHECKS != 0) claimed.resize(count, 0);
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      if (NBUF_STRUCTURAL_CHECKS != 0) ++claimed[i];
      try {
        fn(i);
      } catch (...) {
        const util::MutexLock hold(error.mu);
        if (!error.first) error.first = std::current_exception();
        // Keep draining: other workers may be mid-item; claiming the rest
        // of the queue lets everyone finish fast.
        next.store(count, std::memory_order_relaxed);
        return;
      }
    }
  };
  const std::size_t workers = std::min(threads, count);
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  std::exception_ptr first_error;
  {
    const util::MutexLock hold(error.mu);
    first_error = error.first;
  }
  if (first_error) std::rethrow_exception(first_error);
  if (NBUF_STRUCTURAL_CHECKS != 0)
    for (std::size_t i = 0; i < count; ++i)
      NBUF_INVARIANT_CTX(claimed[i] == 1,
                         util::ctx("i", i, "claims",
                                   static_cast<int>(claimed[i])));
}

BatchEngine::BatchEngine(BatchOptions options) : opt_(std::move(options)) {}

std::size_t BatchEngine::thread_count() const {
  if (opt_.threads != 0) return opt_.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

BatchResult BatchEngine::run(const std::vector<BatchNet>& nets,
                             const lib::BufferLibrary& lib) const {
  NBUF_EXPECTS_MSG(!lib.empty(), "empty buffer library");
  BatchResult out;
  out.results.resize(nets.size());
  out.summary.net_count = nets.size();
  if (nets.empty()) return out;

  core::ToolOptions tool = opt_.tool;
  tool.vg.max_buffers = opt_.max_buffers;

  // Each worker claims the next unprocessed index and writes into that
  // index's result slot; nets are never touched after construction and the
  // pipeline works on its own copy, so no two threads share mutable state.
  const auto t0 = std::chrono::steady_clock::now();
  parallel_for_index(nets.size(), thread_count(), [&](std::size_t i) {
    NBUF_TRACE_SPAN_TAGGED("batch.net", i);
    out.results[i] =
        opt_.mode == BatchMode::BuffOpt
            ? core::run_buffopt(nets[i].tree, lib, tool)
            : core::run_delayopt(nets[i].tree, lib, opt_.max_buffers, tool);
  });
  const auto t1 = std::chrono::steady_clock::now();

  // Serial aggregation in index order: every field below is a pure function
  // of the (deterministic) per-net results, so the summary's counters are
  // schedule-independent too.
  BatchSummary& s = out.summary;
  s.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  for (const core::ToolResult& r : out.results) {
    s.feasible += r.vg.feasible ? 1 : 0;
    s.noise_clean_before += r.noise_before.clean() ? 1 : 0;
    s.noise_clean_after += r.noise_after.clean() ? 1 : 0;
    s.timing_met += r.vg.timing_met ? 1 : 0;
    s.buffers_inserted += r.vg.buffer_count;
    s.stats += r.vg.stats;
    s.dp_seconds += r.optimize_seconds;
  }
  return out;
}

void record_metrics(obs::MetricsRegistry& reg, const BatchSummary& summary) {
  reg.counter("batch.nets").add(summary.net_count);
  reg.counter("batch.feasible").add(summary.feasible);
  reg.counter("batch.noise_clean_before").add(summary.noise_clean_before);
  reg.counter("batch.noise_clean_after").add(summary.noise_clean_after);
  reg.counter("batch.timing_met").add(summary.timing_met);
  reg.counter("batch.buffers_inserted").add(summary.buffers_inserted);
  obs::record_vg_stats(reg, summary.stats);
  reg.gauge("batch.wall_seconds").set(summary.wall_seconds);
  reg.gauge("batch.dp_seconds").set(summary.dp_seconds);
  reg.gauge("batch.nets_per_second").set(summary.nets_per_second());
}

std::vector<BatchNet> from_generated(std::vector<netgen::GeneratedNet> nets) {
  std::vector<BatchNet> out;
  out.reserve(nets.size());
  for (netgen::GeneratedNet& n : nets)
    out.push_back(BatchNet{std::move(n.name), std::move(n.tree)});
  return out;
}

std::vector<BatchNet> load_directory(const std::string& dir,
                                     const lib::BufferLibrary& lib) {
  namespace fs = std::filesystem;
  NBUF_EXPECTS_MSG(fs::is_directory(dir), "batch input is not a directory");
  std::vector<fs::path> files;
  for (const fs::directory_entry& e : fs::directory_iterator(dir))
    if (e.is_regular_file() && e.path().extension() == ".net")
      files.push_back(e.path());
  std::sort(files.begin(), files.end());  // nbuf-lint: allow(sort)
  std::vector<BatchNet> out;
  out.reserve(files.size());
  for (const fs::path& p : files) {
    io::NetFile f = io::read_net_file(p.string(), lib);
    out.push_back(BatchNet{f.name.empty() ? p.filename().string()
                                          : std::move(f.name),
                           std::move(f.tree)});
  }
  return out;
}

}  // namespace nbuf::batch
