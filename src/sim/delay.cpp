#include "sim/delay.hpp"

#include <cmath>
#include <span>
#include <unordered_map>

#include "sim/stage_circuit.hpp"
#include "sim/tree_solver.hpp"
#include "sim/waveform.hpp"
#include "util/check.hpp"

namespace nbuf::sim {

namespace {

// March horizon: driver_rise + kSettleTaus * stage tau, long enough for
// every node to cross 50%.
constexpr double kSettleTaus = 12.0;
constexpr double kVdd = 1.8;             // volt — swing of every driver
constexpr double kSectionLength = 100.0; // µm — pi-section granularity
// Victim's coupled cap fraction: none, so every wire cap is grounded
// (quiet neighbors during the timing event).
constexpr double kCouplingRatio = 0.0;

// 50% crossing time at every sim node of one stage whose driver ramps
// 0 -> kVdd behind `driver_resistance`.
std::vector<double> stage_crossings(const StageCircuit& c,
                                    double driver_resistance,
                                    const StepDelayOptions& opt) {
  NBUF_EXPECTS(driver_resistance > 0.0);
  const std::size_t n = c.size();
  const double h = opt.driver_rise / opt.steps_per_rise;
  const SaturatedRamp ramp{kVdd, opt.driver_rise, 0.0};

  double r_total = driver_resistance;
  double c_total = 0.0;
  for (std::size_t i = 1; i < n; ++i) r_total += 1.0 / c.branch_g[i];
  for (std::size_t i = 0; i < n; ++i) c_total += c.total_cap(i);
  const double t_end = opt.driver_rise + kSettleTaus * r_total * c_total;

  std::vector<double> extra(n, 0.0);
  extra[0] = 1.0 / driver_resistance;
  for (std::size_t i = 0; i < n; ++i) extra[i] += c.total_cap(i) / h;
  const TreeSolver solver(c.parent, c.branch_g, extra);
  // The march runs in the solver's elimination order; the driver feeds the
  // root, which is eliminated last.
  const std::span<const std::size_t> node_at = solver.node_at();
  const std::size_t root = n - 1;

  const double half = kVdd / 2.0;
  std::vector<double> v(n, 0.0), prev(n, 0.0), rhs(n), cap_h(n);
  for (std::size_t k = 0; k < n; ++k) cap_h[k] = c.total_cap(node_at[k]) / h;
  std::vector<double> crossing(n, -1.0);
  const auto steps = static_cast<std::size_t>(std::ceil(t_end / h));
  std::size_t found = 0;
  for (std::size_t step = 1; step <= steps && found < n; ++step) {
    const double t = static_cast<double>(step) * h;
    for (std::size_t k = 0; k < n; ++k) rhs[k] = cap_h[k] * v[k];
    // Driver: Norton source g * v_ramp(t) into the root.
    rhs[root] += ramp.at(t) / driver_resistance;
    prev = v;
    solver.solve_in_order(rhs);
    v = rhs;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = node_at[k];
      if (crossing[i] >= 0.0 || v[k] < half) continue;
      // Linear interpolation inside the step.
      const double f = (half - prev[k]) / (v[k] - prev[k]);
      crossing[i] = t - h + f * h;
      ++found;
    }
  }
  NBUF_ASSERT_MSG(found == n, "stage did not settle to vdd/2 everywhere");
  return crossing;
}

}  // namespace

StepDelayReport step_delays(const rct::RoutingTree& tree,
                            const rct::BufferAssignment& buffers,
                            const lib::BufferLibrary& lib,
                            const StepDelayOptions& options) {
  const auto stages = rct::decompose(tree, buffers, lib);
  std::unordered_map<rct::NodeId, double> input_arrival;  // at gate inputs

  StepDelayReport report;
  report.sinks.resize(tree.sink_count());
  for (const rct::Stage& st : stages) {
    const StageCircuit c =
        build_stage_circuit(tree, st, kCouplingRatio, kSectionLength);
    const auto crossing =
        stage_crossings(c, st.driver_resistance, options);
    double in_arrival = 0.0;
    if (!st.driven_by_source) {
      auto it = input_arrival.find(st.root);
      NBUF_ASSERT(it != input_arrival.end());
      in_arrival = it->second;
    }
    const double out_base = in_arrival + st.driver_intrinsic_delay;
    for (const rct::StageSink& s : st.sinks) {
      const double t = out_base + crossing[c.sim_node_of.at(s.node)];
      if (s.is_buffer_input) {
        input_arrival[s.node] = t;
      } else {
        report.sinks[s.sink.value()] = {s.sink, t};
        report.max_delay = std::max(report.max_delay, t);
      }
    }
  }
  return report;
}

}  // namespace nbuf::sim
