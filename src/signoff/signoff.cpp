#include "signoff/signoff.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <variant>

#include "elmore/elmore.hpp"
#include "noise/devgan.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/check.hpp"

namespace nbuf::signoff {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Golden peaks below this floor (volt) are excluded from the pessimism
// ratio statistics (the ratio metric/golden degenerates as peak -> 0).
constexpr double kPessimismFloor = 1e-3;

std::size_t bin_of(double ratio) {
  if (ratio < 1.0) return 0;
  const auto i = static_cast<std::size_t>(
      (ratio - 1.0) / PessimismStats::kBinWidth);
  return std::min(i + 1, PessimismStats::kBinCount - 1);
}

}  // namespace

void track_min(double& worst, double candidate) {
  if (std::isnan(candidate)) return;
  worst = std::min(worst, candidate);
}

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::GoldenNoise: return "golden_noise";
    case ViolationKind::MetricNoise: return "metric_noise";
    case ViolationKind::Timing: return "timing";
    case ViolationKind::BoundBroken: return "bound_broken";
    case ViolationKind::Infeasible: return "infeasible";
    case ViolationKind::NotConverged: return "not_converged";
  }
  return "unknown";
}

void PessimismStats::add(double ratio) {
  ++bins[bin_of(ratio)];
  if (samples == 0) {
    min = max = ratio;
  } else {
    min = std::min(min, ratio);
    max = std::max(max, ratio);
  }
  sum += ratio;
  ++samples;
}

void PessimismStats::merge(const PessimismStats& o) {
  if (o.samples == 0) return;
  if (samples == 0) {
    min = o.min;
    max = o.max;
  } else {
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }
  samples += o.samples;
  sum += o.sum;
  for (std::size_t i = 0; i < kBinCount; ++i) bins[i] += o.bins[i];
}

std::size_t SignoffReport::count(ViolationKind kind) const {
  std::size_t n = 0;
  for (const Violation& v : violations)
    if (v.kind == kind) ++n;
  return n;
}

namespace {

// The report-assembly half of verify: joins a golden outcome (computed
// alone or pooled with other nets) with the metric and timing engines.
SignoffReport assemble(const std::string& name, const rct::RoutingTree& tree,
                       const rct::BufferAssignment& buffers,
                       const lib::BufferLibrary& lib,
                       const SignoffOptions& options,
                       const sim::GoldenOutcome& outcome) {
  NBUF_TRACE_SPAN_TAGGED("signoff.verify", tree.node_count());
  SignoffReport rep;
  rep.net = name;
  rep.buffer_count = buffers.size();

  const noise::NoiseReport metric = noise::analyze(tree, buffers, lib);
  const elmore::TimingReport timing = elmore::analyze(tree, buffers, lib);

  // The golden engine is the one that can refuse to answer: with the
  // convergence check enabled a too-coarse timestep surfaces as a
  // NotConverged violation, and every golden-derived field becomes NaN
  // (null in JSON) rather than a number nobody should trust.
  const auto* golden = std::get_if<sim::GoldenReport>(&outcome);
  const bool have_golden = golden != nullptr;
  if (have_golden) {
    rep.golden_steps = golden->steps_marched;
    rep.golden_steps_horizon = golden->steps_horizon;
  } else {
    const auto& e = std::get<sim::NotConverged>(outcome);
    Violation v;
    v.kind = ViolationKind::NotConverged;
    v.node = e.node;
    v.value = e.coarse_peak;
    v.limit = e.fine_peak;
    rep.violations.push_back(v);
  }

  std::unordered_map<rct::NodeId, const sim::GoldenLeaf*> golden_at;
  if (have_golden) {
    golden_at.reserve(golden->leaves.size());
    for (const sim::GoldenLeaf& g : golden->leaves) golden_at[g.node] = &g;
  }

  const SignoffTolerances& tol = options.tol;
  rep.worst_golden_slack = have_golden
                               ? std::numeric_limits<double>::infinity()
                               : kNaN;
  rep.worst_metric_slack = std::numeric_limits<double>::infinity();
  rep.worst_timing_slack = std::numeric_limits<double>::infinity();

  rep.leaves.reserve(metric.leaves.size());
  for (const noise::LeafNoise& m : metric.leaves) {
    LeafSignoff leaf;
    leaf.node = m.node;
    leaf.is_buffer_input = m.is_buffer_input;
    leaf.sink = m.sink;
    leaf.margin = m.margin;
    leaf.metric_noise = m.noise;
    leaf.metric_slack = m.slack;
    leaf.golden_peak = leaf.golden_slack = leaf.golden_width = kNaN;
    if (have_golden) {
      const sim::GoldenLeaf& g = *golden_at.at(m.node);
      leaf.golden_peak = g.peak;
      leaf.golden_slack = g.slack;
      leaf.golden_width = g.width;
      if (g.peak >= kPessimismFloor) {
        leaf.pessimism = m.noise / g.peak;
        rep.pessimism.add(leaf.pessimism);
      }
    }
    if (!m.is_buffer_input) {
      const elmore::SinkTiming& t = timing.sinks[m.sink.value()];
      leaf.delay = t.delay;
      leaf.timing_slack = t.slack;
    }

    auto fail = [&](ViolationKind kind, double value, double limit) {
      Violation v;
      v.kind = kind;
      v.node = leaf.node;
      v.is_buffer_input = leaf.is_buffer_input;
      v.sink = leaf.sink;
      v.value = value;
      v.limit = limit;
      rep.violations.push_back(v);
      leaf.pass = false;
    };
    if (have_golden && leaf.golden_slack < -tol.noise_slack)
      fail(ViolationKind::GoldenNoise, leaf.golden_peak,
           leaf.margin + tol.noise_slack);
    if (leaf.metric_slack < -tol.noise_slack)
      fail(ViolationKind::MetricNoise, leaf.metric_noise,
           leaf.margin + tol.noise_slack);
    if (!leaf.is_buffer_input && leaf.timing_slack < -tol.timing_slack)
      fail(ViolationKind::Timing, leaf.delay,
           tree.sink(leaf.sink).required_arrival + tol.timing_slack);
    if (have_golden && leaf.golden_peak > leaf.metric_noise + tol.bound_slop)
      fail(ViolationKind::BoundBroken, leaf.golden_peak,
           leaf.metric_noise + tol.bound_slop);

    track_min(rep.worst_golden_slack, leaf.golden_slack);
    track_min(rep.worst_metric_slack, leaf.metric_slack);
    if (!leaf.is_buffer_input)
      track_min(rep.worst_timing_slack, leaf.timing_slack);
    rep.leaves.push_back(leaf);
  }
  return rep;
}

SignoffReport infeasible_report(std::string_view name) {
  SignoffReport rep;
  rep.net = name;
  rep.optimizer_feasible = false;
  rep.worst_golden_slack = rep.worst_metric_slack = rep.worst_timing_slack =
      kNaN;
  Violation v;
  v.kind = ViolationKind::Infeasible;
  rep.violations.push_back(v);
  return rep;
}

}  // namespace

SignoffReport verify(const std::string& name, const rct::RoutingTree& tree,
                     const rct::BufferAssignment& buffers,
                     const lib::BufferLibrary& lib,
                     const SignoffOptions& options) {
  const sim::GoldenNet net{&tree, &buffers, &lib};
  return assemble(name, tree, buffers, lib, options,
                  sim::golden_analyze({&net, 1}, options.golden).front());
}

std::vector<SignoffReport> verify_results(
    std::span<const std::string_view> names,
    std::span<const core::ToolResult> results, const lib::BufferLibrary& lib,
    const lib::WireWidthLibrary& widths, const SignoffOptions& options) {
  NBUF_EXPECTS(names.size() == results.size());
  const std::size_t n = results.size();
  // The tree each feasible result is verified on: its own, or a copy with
  // the DP's wire widths applied.
  std::vector<rct::RoutingTree> sized;
  sized.reserve(n);
  std::vector<const rct::RoutingTree*> tree_of(n, nullptr);
  std::vector<sim::GoldenNet> golden_nets;
  for (std::size_t i = 0; i < n; ++i) {
    const core::ToolResult& r = results[i];
    if (!r.vg.feasible) continue;
    if (r.vg.wire_widths.empty()) {
      tree_of[i] = &r.tree;
    } else {
      NBUF_EXPECTS_MSG(!widths.empty(),
                       "result carries wire widths but no width library given");
      rct::RoutingTree& t = sized.emplace_back(r.tree);
      core::apply_wire_widths(t, r.vg.wire_widths, widths);
      tree_of[i] = &t;
    }
    golden_nets.push_back({tree_of[i], &r.vg.buffers, &lib});
  }
  const std::vector<sim::GoldenOutcome> golden =
      sim::golden_analyze(golden_nets, options.golden);

  std::vector<SignoffReport> reports;
  reports.reserve(n);
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (tree_of[i] == nullptr) {
      reports.push_back(infeasible_report(names[i]));
    } else {
      reports.push_back(assemble(std::string(names[i]), *tree_of[i],
                                 results[i].vg.buffers, lib, options,
                                 golden[next++]));
    }
  }
  return reports;
}

SignoffReport verify_result(const std::string& name,
                            const core::ToolResult& result,
                            const lib::BufferLibrary& lib,
                            const lib::WireWidthLibrary& widths,
                            const SignoffOptions& options) {
  const std::string_view label = name;
  return std::move(
      verify_results({&label, 1}, {&result, 1}, lib, widths, options).front());
}

void write_pessimism_json(util::JsonWriter& j, const PessimismStats& p) {
  j.begin_object();
  j.field("samples", p.samples);
  j.field("min", p.samples ? p.min : kNaN);
  j.field("mean", p.samples ? p.mean() : kNaN);
  j.field("max", p.samples ? p.max : kNaN);
  j.field("bin_width", PessimismStats::kBinWidth);
  j.key("bins");
  j.begin_array();
  for (std::size_t b : p.bins) j.value(b);
  j.end_array();
  j.end_object();
}

void write_report_json(util::JsonWriter& j, const SignoffReport& rep,
                       bool include_leaves) {
  j.begin_object();
  j.field("net", std::string_view(rep.net));
  j.field("pass", rep.pass());
  j.field("optimizer_feasible", rep.optimizer_feasible);
  j.field("buffer_count", rep.buffer_count);
  j.key("worst");
  j.begin_object();
  j.field("golden_slack", rep.worst_golden_slack);
  j.field("metric_slack", rep.worst_metric_slack);
  j.field("timing_slack", rep.worst_timing_slack);
  j.end_object();
  j.key("violations");
  j.begin_array();
  for (const Violation& v : rep.violations) {
    j.begin_object();
    j.field("kind", std::string_view(to_string(v.kind)));
    if (v.node.valid())
      j.field("node", static_cast<std::size_t>(v.node.value()));
    if (!v.is_buffer_input && v.sink.valid())
      j.field("sink", static_cast<std::size_t>(v.sink.value()));
    j.field("buffer_input", v.is_buffer_input);
    j.field("value", v.value);
    j.field("limit", v.limit);
    j.end_object();
  }
  j.end_array();
  j.key("pessimism");
  write_pessimism_json(j, rep.pessimism);
  if (include_leaves) {
    j.key("leaves");
    j.begin_array();
    for (const LeafSignoff& l : rep.leaves) {
      j.begin_object();
      j.field("node", static_cast<std::size_t>(l.node.value()));
      j.field("buffer_input", l.is_buffer_input);
      if (!l.is_buffer_input)
        j.field("sink", static_cast<std::size_t>(l.sink.value()));
      j.field("pass", l.pass);
      j.field("margin", l.margin);
      j.field("metric_noise", l.metric_noise);
      j.field("metric_slack", l.metric_slack);
      j.field("golden_peak", l.golden_peak);
      j.field("golden_slack", l.golden_slack);
      j.field("golden_width", l.golden_width);
      j.field("pessimism", l.pessimism);
      if (!l.is_buffer_input) {
        j.field("delay", l.delay);
        j.field("timing_slack", l.timing_slack);
      }
      j.end_object();
    }
    j.end_array();
  }
  j.end_object();
}

std::string to_json(const SignoffReport& report) {
  util::JsonWriter j;
  write_report_json(j, report, /*include_leaves=*/true);
  return j.str();
}

}  // namespace nbuf::signoff
