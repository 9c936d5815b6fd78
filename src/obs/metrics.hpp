// MetricsRegistry: every subsystem reports through one door.
//
// Three instrument kinds, split by determinism guarantee:
//
//   Counter   — u64, relaxed atomic adds. Integer addition commutes, so a
//               counter's final value is a pure function of the work done:
//               bit-identical at 1 and 8 threads (the PR1-PR3 contract).
//   Histogram — u64 observations in power-of-two buckets plus count/sum/
//               min/max; all-integer, so schedule-independent like
//               counters.
//   Gauge     — double accumulator for wall-times and other measured
//               quantities. Floating-point accumulation does not commute
//               bit-exactly and timings vary run-to-run, so gauges are
//               explicitly OUTSIDE the determinism contract;
//               MetricsSnapshot::deterministic_equal ignores them.
//
// Lookup by name takes a mutex; the returned reference is stable for the
// registry's lifetime and updates on it are lock-free. Resolve names once
// outside hot loops.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.hpp"

namespace nbuf::util {
struct VgStats;
}

namespace nbuf::obs {

struct TraceData;

class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Histogram {
 public:
  // Bucket index = bit_width(v): bucket 0 holds only 0, bucket b holds
  // [2^(b-1), 2^b). 65 buckets cover the whole u64 range.
  static constexpr std::size_t kBuckets = 65;

  void observe(std::uint64_t v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  // min()/max() are meaningful only when count() > 0.
  [[nodiscard]] std::uint64_t min() const noexcept {
    return min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

class Gauge {
 public:
  void add(double delta) noexcept;
  void set(double v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

// A point-in-time copy of the registry, rows sorted by name (map order),
// so serializations are byte-deterministic.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
    bool operator==(const CounterRow&) const = default;
  };
  struct HistogramRow {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;  // 0 when count == 0
    std::uint64_t max = 0;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
    bool operator==(const HistogramRow&) const = default;
  };
  struct GaugeRow {
    std::string name;
    double value = 0.0;
  };

  std::vector<CounterRow> counters;
  std::vector<HistogramRow> histograms;
  std::vector<GaugeRow> gauges;

  // The determinism contract: counters and histograms equal; gauges
  // (timings) deliberately excluded.
  [[nodiscard]] bool deterministic_equal(const MetricsSnapshot& o) const {
    return counters == o.counters && histograms == o.histograms;
  }
};

class MetricsRegistry {
 public:
  Counter& counter(std::string_view name) NBUF_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name) NBUF_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) NBUF_EXCLUDES(mu_);

  [[nodiscard]] MetricsSnapshot snapshot() const NBUF_EXCLUDES(mu_);

 private:
  mutable util::Mutex mu_;
  // unique_ptr for stable addresses across rehash-free map growth; the
  // instruments themselves are atomic, so only the maps are guarded.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      NBUF_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      NBUF_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      NBUF_GUARDED_BY(mu_);
};

// Adapters: fold existing stat blocks into a registry under stable names.
//
// VgStats fields land under the instrument and name their
// util::kVgStatsFields entry gives: "vg.<field>" counters, the
// "vg.peak_list_size" histogram and the "lib.types" gauge.
void record_vg_stats(MetricsRegistry& reg, const util::VgStats& stats);

// Trace-derived aggregates: per span name, "trace.<name>.count" counter,
// "trace.<name>.seconds" gauge (inclusive), "trace.<name>.self_seconds"
// gauge (minus direct child spans), and — for tagged spans — a
// "trace.<name>.tag" histogram of the nonnegative tag values (e.g. the
// candidate-list size distribution from the kernel detail spans).
void record_trace(MetricsRegistry& reg, const TraceData& data);

}  // namespace nbuf::obs
