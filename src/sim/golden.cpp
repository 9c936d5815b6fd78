#include "sim/golden.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "obs/trace.hpp"
#include "sim/stage_circuit.hpp"
#include "sim/tree_solver.hpp"
#include "util/check.hpp"

namespace nbuf::sim {

namespace {

std::string convergence_message(rct::NodeId node, double coarse,
                                double fine) {
  return "golden simulation did not converge at node " +
         std::to_string(node.value()) + ": peak " + std::to_string(coarse) +
         " V at dt vs " + std::to_string(fine) + " V at dt/2";
}

struct SimOut {
  std::vector<double> peak;   // per sim node
  std::vector<double> width;  // per traced node — time above peak/2
  std::size_t steps_marched = 0;
  std::size_t steps_horizon = 0;  // steps to the fixed settling horizon
};

// The smallest |v| that could still move a reported number: the peak of a
// node in `peak_nodes`, or a half-peak crossing of a node in `trace_nodes`.
double report_floor(const std::vector<double>& peak,
                    const std::vector<std::size_t>& peak_nodes,
                    const std::vector<std::size_t>& trace_nodes) {
  double floor = std::numeric_limits<double>::infinity();
  for (std::size_t i : peak_nodes) floor = std::min(floor, peak[i]);
  for (std::size_t i : trace_nodes) floor = std::min(floor, peak[i] / 2.0);
  return floor;
}

// Marches the stage circuit under aggressor excitation; records per-node
// peak |v| and, for the nodes listed in `trace_nodes` (the stage leaves —
// the only nodes whose pulse shape is reported), stores the waveform so a
// cheap second pass can measure the pulse width at half the peak. Interior
// pi-section nodes are not traced: a large unbuffered stage can take 1e5+
// timesteps, and full-circuit traces would be hundreds of megabytes.
//
// Only the peaks of `peak_nodes` and the widths of `trace_nodes` are
// final on return: the march stops before the settling horizon at the
// first step where the aggressor ramp is flat and max_i |v_i| is strictly
// below report_floor(). From there on every step is v <- A^-1 (C/h) v
// with A an M-matrix and A·1 >= (C/h)·1, so max_i |v_i| can never rise
// again and no reported number can change (docs/signoff.md, "How the
// march ends").
SimOut simulate(const StageCircuit& c, double driver_resistance,
                const GoldenOptions& opt, double steps_per_rise,
                const std::vector<std::size_t>& peak_nodes,
                const std::vector<std::size_t>& trace_nodes) {
  NBUF_EXPECTS(driver_resistance > 0.0);
  const std::size_t n = c.size();
  const SaturatedRamp& ramp = opt.aggressor;
  const double h = ramp.rise / steps_per_rise;

  // Stage time constant estimate for the settling horizon.
  double r_total = driver_resistance;
  double c_total = 0.0;
  for (std::size_t i = 1; i < n; ++i) r_total += 1.0 / c.branch_g[i];
  for (std::size_t i = 0; i < n; ++i) c_total += c.total_cap(i);
  const double t_end = ramp.t0 + ramp.rise +
                       opt.settle_time_constants * r_total * c_total;

  std::vector<double> cap_h(n);     // C_i / h
  std::vector<double> couple_h(n);  // C_couple,i / h
  for (std::size_t i = 0; i < n; ++i) {
    cap_h[i] = c.total_cap(i) / h;
    couple_h[i] = c.cap_couple[i] / h;
  }
  std::vector<double> extra(n, 0.0);
  extra[0] = 1.0 / driver_resistance;  // victim driver holds quiet
  for (std::size_t i = 0; i < n; ++i) extra[i] += cap_h[i];
  const TreeSolver solver(c.parent, c.branch_g, extra);

  std::vector<double> v(n, 0.0);
  SimOut out;
  out.peak.assign(n, 0.0);
  out.width.assign(n, 0.0);
  out.steps_horizon = static_cast<std::size_t>(std::ceil(t_end / h));
  std::vector<std::vector<double>> trace(trace_nodes.size());
  for (auto& tr : trace) tr.reserve(out.steps_horizon);
  double va_prev = ramp.at(0.0);
  while (out.steps_marched < out.steps_horizon) {
    ++out.steps_marched;
    const double t = static_cast<double>(out.steps_marched) * h;
    const double va = ramp.at(t);
    const double dva = va - va_prev;
    va_prev = va;
    for (std::size_t i = 0; i < n; ++i)
      v[i] = cap_h[i] * v[i] + couple_h[i] * dva;
    solver.solve(v);
    double v_max = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double a = std::abs(v[i]);
      out.peak[i] = std::max(out.peak[i], a);
      v_max = std::max(v_max, a);
    }
    for (std::size_t k = 0; k < trace_nodes.size(); ++k)
      trace[k].push_back(std::abs(v[trace_nodes[k]]));
    // va == vdd: the ramp has saturated, so every later dva is exactly 0.
    if (va == ramp.vdd &&
        v_max < report_floor(out.peak, peak_nodes, trace_nodes))
      break;
  }
  for (std::size_t k = 0; k < trace_nodes.size(); ++k) {
    const std::size_t i = trace_nodes[k];
    const double half = out.peak[i] / 2.0;
    if (half <= 0.0) continue;
    std::size_t above = 0;
    for (double x : trace[k])
      if (x >= half) ++above;
    out.width[i] = static_cast<double>(above) * h;
  }
  return out;
}

std::vector<std::size_t> leaf_sim_nodes(const StageCircuit& c,
                                        const rct::Stage& stage) {
  std::vector<std::size_t> out;
  out.reserve(stage.sinks.size());
  for (const rct::StageSink& s : stage.sinks)
    out.push_back(c.sim_node_of.at(s.node));
  return out;
}

// Simulates one stage at the configured timestep; with check_convergence
// set, re-simulates at dt/2 and requires each stage leaf's peak to agree.
// `peak_nodes` must include the leaves. Leaves are checked in stage.sinks
// order, so the node a ConvergenceError names is the first failing leaf of
// the stage, not whichever one a hash map yields first.
SimOut simulate_checked(const StageCircuit& c, const rct::Stage& stage,
                        const GoldenOptions& opt,
                        const std::vector<std::size_t>& peak_nodes,
                        const std::vector<std::size_t>& trace_nodes) {
  SimOut out = simulate(c, stage.driver_resistance, opt, opt.steps_per_rise,
                        peak_nodes, trace_nodes);
  if (opt.check_convergence) {
    NBUF_TRACE_DETAIL_TAGGED("golden.convergence", c.size());
    const std::vector<std::size_t> leaves = leaf_sim_nodes(c, stage);
    const SimOut fine = simulate(c, stage.driver_resistance, opt,
                                 opt.steps_per_rise * 2.0, leaves, {});
    out.steps_marched += fine.steps_marched;
    out.steps_horizon += fine.steps_horizon;
    for (std::size_t k = 0; k < leaves.size(); ++k) {
      const double coarse_peak = out.peak[leaves[k]];
      const double fine_peak = fine.peak[leaves[k]];
      const double tol = std::max(opt.convergence_atol,
                                  opt.convergence_rtol * fine_peak);
      if (std::abs(coarse_peak - fine_peak) > tol)
        throw ConvergenceError(stage.sinks[k].node, coarse_peak, fine_peak);
    }
  }
  return out;
}

}  // namespace

ConvergenceError::ConvergenceError(rct::NodeId n, double coarse, double fine)
    : std::runtime_error(convergence_message(n, coarse, fine)),
      node(n),
      coarse_peak(coarse),
      fine_peak(fine) {}

GoldenOptions golden_options_from(const lib::Technology& tech) {
  tech.validate();
  GoldenOptions opt;
  opt.coupling_ratio = tech.coupling_ratio;
  opt.aggressor = SaturatedRamp{tech.vdd, tech.aggressor_rise, 0.0};
  return opt;
}

std::vector<std::pair<rct::NodeId, double>> golden_stage_peaks(
    const rct::RoutingTree& tree, const rct::Stage& stage,
    const GoldenOptions& options) {
  const StageCircuit c = build_stage_circuit(
      tree, stage, options.coupling_ratio, options.section_length);
  std::vector<std::size_t> sims;
  sims.reserve(stage.nodes.size());
  for (rct::NodeId id : stage.nodes) sims.push_back(c.sim_node_of.at(id));
  const SimOut sim_out = simulate_checked(c, stage, options, sims, {});
  std::vector<std::pair<rct::NodeId, double>> out;
  out.reserve(stage.nodes.size());
  for (std::size_t k = 0; k < stage.nodes.size(); ++k)
    out.emplace_back(stage.nodes[k], sim_out.peak[sims[k]]);
  return out;
}

GoldenReport golden_analyze(const rct::RoutingTree& tree,
                            const rct::BufferAssignment& buffers,
                            const lib::BufferLibrary& lib,
                            const GoldenOptions& options) {
  NBUF_TRACE_SPAN_TAGGED("golden.analyze", tree.node_count());
  const auto stages = rct::decompose(tree, buffers, lib);
  GoldenReport report;
  report.sinks.resize(tree.sink_count());
  report.worst_slack = std::numeric_limits<double>::infinity();
  for (const rct::Stage& st : stages) {
    NBUF_TRACE_DETAIL_TAGGED("golden.stage", st.sinks.size());
    const StageCircuit c = build_stage_circuit(
        tree, st, options.coupling_ratio, options.section_length);
    const std::vector<std::size_t> leaves = leaf_sim_nodes(c, st);
    const SimOut sim_out = simulate_checked(c, st, options, leaves, leaves);
    report.steps_marched += sim_out.steps_marched;
    report.steps_horizon += sim_out.steps_horizon;
    for (std::size_t k = 0; k < st.sinks.size(); ++k) {
      const rct::StageSink& s = st.sinks[k];
      GoldenLeaf leaf;
      leaf.node = s.node;
      leaf.is_buffer_input = s.is_buffer_input;
      leaf.sink = s.sink;
      leaf.peak = sim_out.peak[leaves[k]];
      leaf.width = sim_out.width[leaves[k]];
      leaf.margin = s.noise_margin;
      leaf.slack = leaf.margin - leaf.peak;
      report.leaves.push_back(leaf);
      if (!s.is_buffer_input) report.sinks[s.sink.value()] = leaf;
      report.worst_slack = std::min(report.worst_slack, leaf.slack);
      if (leaf.slack < 0.0) ++report.violation_count;
    }
  }
  return report;
}

GoldenReport golden_analyze_unbuffered(const rct::RoutingTree& tree,
                                       const GoldenOptions& options) {
  static const lib::BufferLibrary empty_lib;
  return golden_analyze(tree, rct::BufferAssignment{}, empty_lib, options);
}

}  // namespace nbuf::sim
