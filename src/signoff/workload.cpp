#include "signoff/workload.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <span>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/check.hpp"

namespace nbuf::signoff {

namespace {

// Nets per golden pool. Pooling across nets keeps the lane march's lanes
// full; a small chunk still leaves every worker many chunks to claim
// (EXPERIMENTS.md F-R).
constexpr std::size_t kChunkNets = 16;

// +inf accumulators render as 0 when nothing contributed (no converged
// leaf at all — e.g. every net infeasible).
double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

WorkloadSignoff run_workload(const std::vector<batch::BatchNet>& nets,
                             const std::vector<core::ToolResult>& results,
                             const lib::BufferLibrary& lib,
                             const WorkloadOptions& options) {
  NBUF_EXPECTS_MSG(nets.size() == results.size(),
                   "signoff workload: nets/results size mismatch");
  WorkloadSignoff out;
  out.net_count = nets.size();
  out.reports.resize(nets.size());

  // Workers claim chunks of consecutive nets, and each chunk's golden
  // stages march in one pool (signoff::verify_results).
  const std::size_t chunks = (nets.size() + kChunkNets - 1) / kChunkNets;
  const auto t0 = std::chrono::steady_clock::now();
  batch::parallel_for_index(chunks, options.threads, [&](std::size_t c) {
    const std::size_t lo = c * kChunkNets;
    const std::size_t hi = std::min(nets.size(), lo + kChunkNets);
    NBUF_TRACE_SPAN_TAGGED("signoff.chunk", lo);
    std::vector<std::string_view> names;
    for (std::size_t i = lo; i < hi; ++i) names.emplace_back(nets[i].name);
    std::vector<SignoffReport> reps =
        verify_results(names, std::span(results).subspan(lo, hi - lo), lib,
                       options.wire_widths, options.signoff);
    for (std::size_t i = lo; i < hi; ++i)
      out.reports[i] = std::move(reps[i - lo]);
  });
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();

  // Contract level 2: the reduction below is index-ordered and duplicate-
  // free only because report slot i belongs to input net i — re-prove the
  // slot/input correspondence before folding.
  if (NBUF_STRUCTURAL_CHECKS != 0)
    for (std::size_t i = 0; i < nets.size(); ++i)
      NBUF_INVARIANT_CTX(out.reports[i].net == nets[i].name,
                         util::ctx("i", i, "report", out.reports[i].net,
                                   "net", nets[i].name));

  // Serial reduction in index order: every aggregate is a pure function of
  // the (deterministic) per-net reports, so the summary reproduces
  // bit-identically at any thread count.
  out.worst_golden_slack = std::numeric_limits<double>::infinity();
  out.worst_metric_slack = std::numeric_limits<double>::infinity();
  out.worst_timing_slack = std::numeric_limits<double>::infinity();
  for (const SignoffReport& r : out.reports) {
    out.passed += r.pass() ? 1 : 0;
    out.violations += r.violations.size();
    for (const Violation& v : r.violations) {
      NBUF_ASSERT_CTX(static_cast<std::size_t>(v.kind) < kViolationKinds,
                      util::ctx("kind", static_cast<std::size_t>(v.kind)));
      ++out.by_kind[static_cast<std::size_t>(v.kind)];
    }
    if (r.optimizer_feasible && r.count(ViolationKind::MetricNoise) == 0) {
      ++out.feasible;
      if (r.count(ViolationKind::GoldenNoise) == 0 &&
          r.count(ViolationKind::NotConverged) == 0)
        ++out.feasible_golden_clean;
    }
    track_min(out.worst_golden_slack, r.worst_golden_slack);
    track_min(out.worst_metric_slack, r.worst_metric_slack);
    track_min(out.worst_timing_slack, r.worst_timing_slack);
    out.pessimism.merge(r.pessimism);
    out.golden_steps += r.golden_steps;
    out.golden_steps_horizon += r.golden_steps_horizon;
  }
  out.worst_golden_slack = finite_or_zero(out.worst_golden_slack);
  out.worst_metric_slack = finite_or_zero(out.worst_metric_slack);
  out.worst_timing_slack = finite_or_zero(out.worst_timing_slack);
  return out;
}

std::string to_json(const WorkloadSignoff& w, bool include_leaves) {
  util::JsonWriter j;
  j.begin_object();
  j.field("schema", std::string_view("nbuf-signoff-v1"));
  j.field("pass", w.pass());
  j.field("nets", w.net_count);
  j.field("passed", w.passed);
  j.field("violations", w.violations);
  j.key("violations_by_kind");
  j.begin_object();
  for (std::size_t k = 0; k < kViolationKinds; ++k)
    j.field(to_string(static_cast<ViolationKind>(k)), w.by_kind[k]);
  j.end_object();
  j.field("feasible", w.feasible);
  j.field("feasible_golden_clean", w.feasible_golden_clean);
  j.key("worst");
  j.begin_object();
  j.field("golden_slack", w.worst_golden_slack);
  j.field("metric_slack", w.worst_metric_slack);
  j.field("timing_slack", w.worst_timing_slack);
  j.end_object();
  j.key("pessimism");
  write_pessimism_json(j, w.pessimism);
  j.field("wall_seconds", w.wall_seconds);
  j.key("reports");
  j.begin_array();
  for (const SignoffReport& r : w.reports)
    write_report_json(j, r, include_leaves);
  j.end_array();
  j.end_object();
  return j.str();
}

void record_metrics(obs::MetricsRegistry& reg, const WorkloadSignoff& w) {
  reg.counter("signoff.nets").add(w.net_count);
  reg.counter("signoff.passed").add(w.passed);
  reg.counter("signoff.violations").add(w.violations);
  for (std::size_t k = 0; k < kViolationKinds; ++k) {
    reg.counter(std::string("signoff.violations.") +
                to_string(static_cast<ViolationKind>(k)))
        .add(w.by_kind[k]);
  }
  reg.counter("signoff.feasible").add(w.feasible);
  reg.counter("signoff.feasible_golden_clean").add(w.feasible_golden_clean);
  reg.counter("signoff.pessimism.samples").add(w.pessimism.samples);
  reg.counter("sim.golden_steps").add(w.golden_steps);
  reg.counter("sim.golden_steps_horizon").add(w.golden_steps_horizon);
  for (std::size_t b = 0; b < PessimismStats::kBinCount; ++b) {
    reg.counter("signoff.pessimism.bin_" + std::string(b < 10 ? "0" : "") +
                std::to_string(b))
        .add(w.pessimism.bins[b]);
  }
  reg.gauge("signoff.worst_golden_slack").set(w.worst_golden_slack);
  reg.gauge("signoff.worst_metric_slack").set(w.worst_metric_slack);
  reg.gauge("signoff.worst_timing_slack").set(w.worst_timing_slack);
  reg.gauge("signoff.pessimism.min").set(w.pessimism.samples ? w.pessimism.min
                                                             : 0.0);
  reg.gauge("signoff.pessimism.mean").set(w.pessimism.mean());
  reg.gauge("signoff.pessimism.max").set(w.pessimism.max);
  reg.gauge("signoff.wall_seconds").set(w.wall_seconds);
  reg.gauge("signoff.nets_per_second").set(w.nets_per_second());
}

}  // namespace nbuf::signoff
