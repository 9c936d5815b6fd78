#include "obs/trace.hpp"

#include <algorithm>
#include <map>

namespace nbuf::obs {

namespace {

// The single active recording. Install/uninstall happens only in
// TraceRecording's constructor and stop(), which the threading contract
// (trace.hpp) forbids racing with spans; the span fast path reads it with
// one acquire load.
// Process-wide by design: the span macros must find the recording without
// threading a context parameter through every DP call (docs/quality.md
// "mutable-global" policy).
std::atomic<TraceRecording*> g_active{nullptr};  // nbuf-lint: allow(mutable-global)

// Monotone recording id: lets a thread's cached buffer pointer from a
// previous recording be told apart from the current one without any
// per-recording thread bookkeeping.
std::atomic<std::uint64_t> g_next_generation{0};  // nbuf-lint: allow(mutable-global)

struct ThreadSlot {
  std::uint64_t generation = 0;  // 0 is never a real generation
  TraceBuffer* buffer = nullptr;
};

}  // namespace

namespace detail {

TraceBuffer* active_buffer(TraceLevel level) {
  TraceRecording* rec = g_active.load(std::memory_order_acquire);
  if (rec == nullptr) return nullptr;
  if (level == TraceLevel::Detail && rec->level() != TraceLevel::Detail)
    return nullptr;
  thread_local ThreadSlot slot;
  if (slot.generation != rec->generation()) {
    slot.buffer = rec->register_thread();
    slot.generation = rec->generation();
  }
  return slot.buffer;
}

}  // namespace detail

TraceRecording::TraceRecording(TraceLevel level)
    : level_(level),
      generation_(1 + g_next_generation.fetch_add(1,
                                                  std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {
  TraceRecording* expected = nullptr;
  NBUF_REQUIRE_MSG(
      g_active.compare_exchange_strong(expected, this,
                                       std::memory_order_release,
                                       std::memory_order_relaxed),
      "a TraceRecording is already active (one at a time)");
}

TraceRecording::~TraceRecording() {
  if (!stopped_) static_cast<void>(stop());
}

TraceBuffer* TraceRecording::register_thread() {
  const util::MutexLock lock(mu_);
  buffers_.push_back(std::make_unique<TraceBuffer>(epoch_));
  return buffers_.back().get();
}

TraceData TraceRecording::stop() {
  NBUF_REQUIRE_MSG(!stopped_, "TraceRecording::stop() called twice");
  stopped_ = true;
  g_active.store(nullptr, std::memory_order_release);
  const util::MutexLock lock(mu_);
  TraceData data;
  data.threads.reserve(buffers_.size());
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    TraceBuffer& buf = *buffers_[i];
    // All spans must have closed before stop() (workers joined).
    NBUF_ASSERT_MSG(buf.depth_ == 0, "unclosed span at TraceRecording::stop");
    data.threads.push_back(ThreadTrace{i + 1, std::move(buf.events_)});
  }
  buffers_.clear();
  return data;
}

namespace {

// Renders one root span subtree (events[i] at depth d and everything
// after it until depth returns to d) as "depth name [tag]" lines.
std::size_t render_subtree(const std::vector<TraceEvent>& events,
                           std::size_t i, std::string& out) {
  const std::uint32_t root_depth = events[i].depth;
  do {
    const TraceEvent& e = events[i];
    out += std::to_string(e.depth - root_depth);
    out += ' ';
    out += e.name;
    if (e.tag != kNoTag) {
      out += ' ';
      out += std::to_string(e.tag);
    }
    out += '\n';
    ++i;
  } while (i < events.size() && events[i].depth > root_depth);
  return i;
}

}  // namespace

std::string structure_signature(const TraceData& data) {
  // Which worker ran which net — and in which order — is schedule
  // noise; the multiset of root subtrees is not. Canonical form: every
  // root subtree rendered separately, sorted, concatenated.
  std::vector<std::string> roots;
  for (const ThreadTrace& t : data.threads) {
    std::size_t i = 0;
    while (i < t.events.size()) {
      std::string r;
      i = render_subtree(t.events, i, r);
      roots.push_back(std::move(r));
    }
  }
  std::sort(roots.begin(), roots.end());  // nbuf-lint: allow(sort)
  std::string sig;
  for (const std::string& r : roots) {
    sig += r;
    sig += "--\n";
  }
  return sig;
}

std::vector<PhaseRow> phase_breakdown(const TraceData& data) {
  std::map<std::string, PhaseRow> rows;
  for (const ThreadTrace& t : data.threads) {
    // child_ns[i]: closed direct children's time of event i. Events are in
    // open order, so the open ancestors of an event are a stack by depth.
    std::vector<std::uint64_t> child_ns(t.events.size(), 0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < t.events.size(); ++i) {
      const TraceEvent& e = t.events[i];
      while (!open.empty() && t.events[open.back()].depth >= e.depth)
        open.pop_back();
      if (e.closed() && !open.empty()) child_ns[open.back()] += e.dur_ns;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < t.events.size(); ++i) {
      const TraceEvent& e = t.events[i];
      if (!e.closed()) continue;
      PhaseRow& row = rows[e.name];
      row.count += 1;
      row.seconds += static_cast<double>(e.dur_ns) * 1e-9;
      row.self_seconds += static_cast<double>(e.dur_ns - child_ns[i]) * 1e-9;
    }
  }
  std::vector<PhaseRow> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) {
    row.name = name;
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace nbuf::obs
