// Span-based tracing: where does the time go inside one net's optimization?
//
// The API is three layers, cheapest first:
//
//   1. NBUF_TRACE_SPAN("vg.optimize") / NBUF_TRACE_SPAN_TAGGED(name, tag)
//      — an RAII span covering the enclosing scope. While no recording
//      is active, a span costs one relaxed atomic load and a branch. Spans
//      are always compiled in: a build without them measured within
//      -2.8%..+0.8% of this one (docs/observability.md).
//   2. NBUF_TRACE_DETAIL / NBUF_TRACE_DETAIL_TAGGED — per-node/per-list
//      spans inside the DP kernels. Recorded only when the active
//      recording was opened at TraceLevel::Detail; a Phase-level
//      recording of a 500-net batch stays small (~10 events/net) while a
//      Detail recording of a single net captures every prune/merge.
//   3. TraceRecording — installs itself as the process-wide active
//      recording; each worker thread lazily registers a private
//      TraceBuffer (no locks or shared writes on the span path), and
//      stop() collects the per-thread buffers into a TraceData.
//
// Threading contract: spans may open/close concurrently on any number of
// threads, but TraceRecording construction and stop() must not race with
// in-flight spans — start the recording before spawning workers and stop
// it after they joined (BatchEngine::run and signoff::run_workload join
// internally, so wrapping a call to either is safe). One recording at a
// time; constructing a second while one is active throws.
//
// Determinism: span *structure* — names, nesting, counts, tags — is a
// pure function of the work performed, so under a fixed seed the multiset
// of per-net span trees is identical at any thread count and run-to-run;
// structure_signature() canonicalizes exactly that (timings excluded).
// Span names must be string literals (or otherwise outlive the
// recording): buffers store the pointer, not a copy.
#pragma once

#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/contracts.hpp"
#include "util/thread_annotations.hpp"

namespace nbuf::obs {

enum class TraceLevel : std::uint8_t {
  Phase = 0,   // per-net / per-phase spans only
  Detail = 1,  // additionally per-node kernel spans
};

// Tag value meaning "no tag" (kept out of exports and signatures).
inline constexpr std::int64_t kNoTag = INT64_MIN;

struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t t0_ns = 0;   // offset from the recording epoch
  std::uint64_t dur_ns = 0;  // kUnclosed until the span closes
  std::uint32_t depth = 0;   // nesting depth within the owning thread
  std::int64_t tag = kNoTag;

  static constexpr std::uint64_t kUnclosed = UINT64_MAX;
  [[nodiscard]] bool closed() const noexcept { return dur_ns != kUnclosed; }
};

// Per-thread event buffer. Owned by the recording; each worker thread
// writes only its own buffer, so the span path takes no locks.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::chrono::steady_clock::time_point epoch)
      : epoch_(epoch) {}

  std::size_t open(const char* name, std::int64_t tag) {
    events_.push_back(TraceEvent{name, now_ns(), TraceEvent::kUnclosed,
                                 depth_, tag});
    ++depth_;
    return events_.size() - 1;
  }

  void close(std::size_t index) {
    NBUF_ASSERT(depth_ > 0);
    --depth_;
    TraceEvent& e = events_[index];
    NBUF_ASSERT(!e.closed());
    NBUF_ASSERT(e.depth == depth_);
    e.dur_ns = now_ns() - e.t0_ns;
  }

 private:
  friend class TraceRecording;

  [[nodiscard]] std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceEvent> events_;
  std::uint32_t depth_ = 0;
};

// Everything one recording captured: one event list per participating
// thread, each in span-open order (so t0 is monotone within a thread).
struct ThreadTrace {
  std::size_t tid = 0;  // 1-based registration order, not an OS id
  std::vector<TraceEvent> events;
};

struct TraceData {
  std::vector<ThreadTrace> threads;

  [[nodiscard]] std::size_t event_count() const noexcept {
    std::size_t n = 0;
    for (const ThreadTrace& t : threads) n += t.events.size();
    return n;
  }
};

namespace detail {
// The span fast path: null when no recording is active or the recording's
// level excludes `level`; otherwise this thread's buffer (registering it
// on first use).
[[nodiscard]] TraceBuffer* active_buffer(TraceLevel level);
}  // namespace detail

class TraceRecording {
 public:
  explicit TraceRecording(TraceLevel level = TraceLevel::Phase);
  ~TraceRecording();
  TraceRecording(const TraceRecording&) = delete;
  TraceRecording& operator=(const TraceRecording&) = delete;

  // Uninstalls the recording and hands over the per-thread buffers.
  // Callable once; requires all spans closed (workers joined).
  [[nodiscard]] TraceData stop();

  [[nodiscard]] TraceLevel level() const noexcept { return level_; }
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

 private:
  friend TraceBuffer* detail::active_buffer(TraceLevel);
  TraceBuffer* register_thread();

  TraceLevel level_;
  std::uint64_t generation_;
  std::chrono::steady_clock::time_point epoch_;
  bool stopped_ = false;
  // Buffers are appended under the mutex (once per thread per recording)
  // and never reallocated out from under a writer (unique_ptr gives
  // stable addresses). Only the vector is guarded: each TraceBuffer is
  // written solely by its registering thread until stop() joins them.
  util::Mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_ NBUF_GUARDED_BY(mu_);
};

// RAII span. Prefer the macros; the constructor resolves the active
// buffer, so a span constructed while no recording runs is a no-op — the
// tagged macros pass the tag as a lambda, so a possibly-costly tag
// expression (e.g. a candidate-list size sum) is evaluated only when a
// recording is actually capturing this span.
class TraceSpan {
 public:
  TraceSpan(const char* name, TraceLevel level, std::int64_t tag)
      : buf_(detail::active_buffer(level)) {
    if (buf_ != nullptr) index_ = buf_->open(name, tag);
  }

  template <class TagFn>
    requires std::invocable<TagFn&>
  TraceSpan(const char* name, TraceLevel level, TagFn&& tag_fn)
      : buf_(detail::active_buffer(level)) {
    if (buf_ != nullptr)
      index_ = buf_->open(name, static_cast<std::int64_t>(tag_fn()));
  }
  ~TraceSpan() {
    if (buf_ != nullptr) buf_->close(index_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceBuffer* buf_;
  std::size_t index_ = 0;
};

// Canonical rendering of span structure only (names, nesting, counts,
// tags — no timings, no thread assignment): the multiset of root span
// subtrees across all threads, each rendered depth-first, sorted.
// Identical inputs ⇒ identical string at any thread count.
[[nodiscard]] std::string structure_signature(const TraceData& data);

// Per-name totals, sorted by name. `seconds` is inclusive (a parent's time
// includes its children's); `self_seconds` is each span's duration minus
// its direct child spans on the same thread, so the self times of all names
// add up to the root spans' total. Unclosed spans are skipped.
struct PhaseRow {
  std::string name;
  std::uint64_t count = 0;
  double seconds = 0.0;
  double self_seconds = 0.0;
};
[[nodiscard]] std::vector<PhaseRow> phase_breakdown(const TraceData& data);

}  // namespace nbuf::obs

#define NBUF_OBS_CAT2_(a, b) a##b
#define NBUF_OBS_CAT_(a, b) NBUF_OBS_CAT2_(a, b)

#define NBUF_TRACE_SPAN(name_lit)                                       \
  const ::nbuf::obs::TraceSpan NBUF_OBS_CAT_(nbuf_trace_span_,          \
                                             __LINE__)(                 \
      (name_lit), ::nbuf::obs::TraceLevel::Phase, ::nbuf::obs::kNoTag)
#define NBUF_TRACE_SPAN_TAGGED(name_lit, tag)                           \
  const ::nbuf::obs::TraceSpan NBUF_OBS_CAT_(nbuf_trace_span_,          \
                                             __LINE__)(                 \
      (name_lit), ::nbuf::obs::TraceLevel::Phase,                       \
      [&]() noexcept { return static_cast<std::int64_t>(tag); })
#define NBUF_TRACE_DETAIL(name_lit)                                     \
  const ::nbuf::obs::TraceSpan NBUF_OBS_CAT_(nbuf_trace_span_,          \
                                             __LINE__)(                 \
      (name_lit), ::nbuf::obs::TraceLevel::Detail, ::nbuf::obs::kNoTag)
#define NBUF_TRACE_DETAIL_TAGGED(name_lit, tag)                         \
  const ::nbuf::obs::TraceSpan NBUF_OBS_CAT_(nbuf_trace_span_,          \
                                             __LINE__)(                 \
      (name_lit), ::nbuf::obs::TraceLevel::Detail,                      \
      [&]() noexcept { return static_cast<std::int64_t>(tag); })

