#include "obs/metrics.hpp"

#include <bit>

#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace nbuf::obs {

void Histogram::observe(std::uint64_t v) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Gauge::add(double delta) noexcept {
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

namespace {

// The caller holds the registry mutex (the analyzer checks this at every
// call site — the map references below are all NBUF_GUARDED_BY(mu_)).
template <class Instrument, class Map>
Instrument& get_or_create(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), std::make_unique<Instrument>())
             .first;
  }
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  const util::MutexLock lock(mu_);
  return get_or_create<Counter>(counters_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const util::MutexLock lock(mu_);
  return get_or_create<Histogram>(histograms_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const util::MutexLock lock(mu_);
  return get_or_create<Gauge>(gauges_, name);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const util::MutexLock lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    snap.counters.push_back({name, c->value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramRow row;
    row.name = name;
    row.count = h->count();
    row.sum = h->sum();
    row.min = row.count > 0 ? h->min() : 0;
    row.max = h->max();
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
      row.buckets[i] = h->bucket(i);
    snap.histograms.push_back(std::move(row));
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    snap.gauges.push_back({name, g->value()});
  return snap;
}

void record_vg_stats(MetricsRegistry& reg, const util::VgStats& stats) {
  for (const util::VgStatsField& f : util::kVgStatsFields) {
    const std::size_t v = stats.*f.member;
    switch (f.metric) {
      case util::VgStatsField::Metric::Counter:
        reg.counter(f.metric_name).add(v);
        break;
      case util::VgStatsField::Metric::Histogram:
        reg.histogram(f.metric_name).observe(v);
        break;
      case util::VgStatsField::Metric::Gauge:
        reg.gauge(f.metric_name).set(static_cast<double>(v));
        break;
    }
  }
}

void record_trace(MetricsRegistry& reg, const TraceData& data) {
  for (const PhaseRow& row : phase_breakdown(data)) {
    reg.counter("trace." + row.name + ".count").add(row.count);
    reg.gauge("trace." + row.name + ".seconds").add(row.seconds);
  }
  for (const ThreadTrace& t : data.threads) {
    for (const TraceEvent& e : t.events) {
      if (e.tag == kNoTag || e.tag < 0) continue;
      reg.histogram("trace." + std::string(e.name) + ".tag")
          .observe(static_cast<std::uint64_t>(e.tag));
    }
  }
}

}  // namespace nbuf::obs
