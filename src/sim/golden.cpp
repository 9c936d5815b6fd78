#include "sim/golden.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <string>

#include "obs/trace.hpp"
#include "sim/tree_solver.hpp"
#include "util/check.hpp"

namespace nbuf::sim {

namespace {

// A whole number of steps per rise puts the end of the aggressor ramp on a
// step boundary; otherwise the dt/2 check would swing with that phase.
bool valid_steps_per_rise(double v) {
  return std::isfinite(v) && v >= 1.0 && std::trunc(v) == v;
}

std::string convergence_message(const NotConverged& f) {
  return "golden simulation did not converge at node " +
         std::to_string(f.node.value()) + ": peak " +
         std::to_string(f.coarse_peak) + " V at dt vs " +
         std::to_string(f.fine_peak) + " V at dt/2";
}

// One non-root node of some lane, as both sweeps see it: the forward sweep
// does *up += ratio·*self, the backward sweep *self = (*self + g·*up)/diag
// (TreeSolver::solve_in_order's two loops).
struct SweepOp {
  double* self;
  double* up;
  double ratio;
  double g;
  double diag;
};

// Steps to the fixed settling horizon t0 + rise + k·R_total·C_total.
std::size_t horizon_steps(const StageMarch& s, const GoldenOptions& opt) {
  const StageCircuit& c = *s.circuit;
  const std::size_t n = c.size();
  const SaturatedRamp& ramp = opt.aggressor;
  const double h = ramp.rise / s.steps_per_rise;
  double r_total = s.driver_resistance;
  double c_total = 0.0;
  for (std::size_t i = 1; i < n; ++i) r_total += 1.0 / c.branch_g[i];
  for (std::size_t i = 0; i < n; ++i) c_total += c.total_cap(i);
  const double t_end =
      ramp.t0 + ramp.rise + kSettleTimeConstants * r_total * c_total;
  return static_cast<std::size_t>(std::ceil(t_end / h));
}

// One stage in flight. Its vectors are in the solver's elimination order.
struct Lane {
  std::size_t stage = 0;
  double h = 0.0;
  double va_prev = 0.0;
  bool flat = false;  // the ramp has saturated: every later Δv_a is exactly 0
  std::size_t steps = 0;
  std::size_t horizon = 0;
  std::optional<TreeSolver> solver;
  std::vector<double> x, cap_h, couple_h, peak;
  std::vector<std::size_t> peak_pos, trace_pos;
  std::vector<std::vector<double>> trace;

  void load(std::size_t index, const StageMarch& s, std::size_t steps_horizon,
            const GoldenOptions& opt) {
    const StageCircuit& c = *s.circuit;
    const std::size_t n = c.size();
    stage = index;
    h = opt.aggressor.rise / s.steps_per_rise;
    va_prev = opt.aggressor.at(0.0);
    flat = false;
    steps = 0;
    horizon = steps_horizon;

    std::vector<double> extra(n, 0.0);
    extra[0] = 1.0 / s.driver_resistance;  // victim driver holds quiet
    for (std::size_t i = 0; i < n; ++i) extra[i] += c.total_cap(i) / h;
    solver.emplace(c.parent, c.branch_g, extra);
    const std::span<const std::size_t> node_at = solver->node_at();
    std::vector<std::size_t> pos(n);
    for (std::size_t k = 0; k < n; ++k) pos[node_at[k]] = k;

    x.assign(n, 0.0);
    peak.assign(n, 0.0);
    cap_h.resize(n);
    couple_h.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      cap_h[k] = c.total_cap(node_at[k]) / h;
      couple_h[k] = c.cap_couple[node_at[k]] / h;
    }
    peak_pos.clear();
    for (std::size_t i : s.peak_nodes) peak_pos.push_back(pos.at(i));
    trace_pos.clear();
    for (std::size_t i : s.trace_nodes) trace_pos.push_back(pos.at(i));
    // The lane's earlier traces keep their capacity: most stages stop long
    // before the horizon, so no reservation up front.
    trace.resize(trace_pos.size());
    for (auto& tr : trace) tr.clear();
  }

  // The smallest |v| that could still move a reported number: a reported
  // peak, or a half-peak crossing of a traced node.
  [[nodiscard]] double report_floor() const {
    double floor = std::numeric_limits<double>::infinity();
    for (std::size_t k : peak_pos) floor = std::min(floor, peak[k]);
    for (std::size_t k : trace_pos) floor = std::min(floor, peak[k] / 2.0);
    return floor;
  }

  // Starts a step: the right-hand side (C/h)·v + (C_c/h)·Δv_a, built in x.
  void begin_step(const SaturatedRamp& ramp) {
    ++steps;
    const double t = static_cast<double>(steps) * h;
    const double va = ramp.at(t);
    const double dva = va - va_prev;
    va_prev = va;
    flat = va == ramp.vdd;
    const std::size_t n = x.size();
    double* v = x.data();
    const double* ch = cap_h.data();
    const double* cc = couple_h.data();
    for (std::size_t k = 0; k < n; ++k) v[k] = ch[k] * v[k] + cc[k] * dva;
  }

  // Ends a step: peaks and traces; true once the stage is done. It is done
  // at the horizon, or at the first flat-ramp step where max_i |v_i| is
  // strictly below report_floor(): from there every step is v <- A^-1 (C/h)
  // v with A an M-matrix and A·1 >= (C/h)·1, so max_i |v_i| can never rise
  // again and no reported number can change (docs/signoff.md, "How the
  // march ends").
  [[nodiscard]] bool end_step() {
    const std::size_t n = x.size();
    const double* v = x.data();
    double* pk = peak.data();
    for (std::size_t k = 0; k < n; ++k) pk[k] = std::max(pk[k], std::abs(v[k]));
    for (std::size_t j = 0; j < trace_pos.size(); ++j)
      trace[j].push_back(std::abs(v[trace_pos[j]]));
    if (steps == horizon) return true;
    if (!flat) return false;
    const double floor = report_floor();
    for (std::size_t k = 0; k < n; ++k)
      if (!(std::abs(v[k]) < floor)) return false;
    return true;
  }

  // Peaks and widths by sim node. The width is the time a traced node's
  // |v| spent at or above half its peak.
  void finish(const StageMarch& s, MarchResult& out) const {
    const std::size_t n = x.size();
    const std::span<const std::size_t> node_at = solver->node_at();
    out.peak.assign(n, 0.0);
    out.width.assign(n, 0.0);
    for (std::size_t k = 0; k < n; ++k) out.peak[node_at[k]] = peak[k];
    for (std::size_t j = 0; j < trace_pos.size(); ++j) {
      const double half = peak[trace_pos[j]] / 2.0;
      if (half <= 0.0) continue;
      std::size_t above = 0;
      for (double a : trace[j])
        if (a >= half) ++above;
      out.width[s.trace_nodes[j]] = static_cast<double>(above) * h;
    }
    out.steps_marched = steps;
    out.steps_horizon = horizon;
  }
};

// The lane march. Stages wait in a queue sorted by descending n × horizon
// (the schedule only; results cannot depend on it); up to kMarchLanes of
// them step together, and a finished stage's lane takes the next one. With
// two or more lanes live the sweeps run over one schedule that interleaves
// the lanes' ops round-robin; it keeps each lane's own order, so each node
// sees the same operations in the same order as in a march of its stage
// alone. A lone lane runs TreeSolver::solve_in_order itself, whose sweeps
// carry each chain's value in a register.
std::vector<MarchResult> march(std::span<const StageMarch> stages,
                               const GoldenOptions& opt) {
  NBUF_TRACE_SPAN_TAGGED("golden.march", stages.size());
  const SaturatedRamp& ramp = opt.aggressor;
  std::vector<MarchResult> results(stages.size());
  std::vector<std::size_t> horizon(stages.size());
  std::vector<std::size_t> queue(stages.size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageMarch& s = stages[i];
    NBUF_EXPECTS(s.circuit != nullptr && s.circuit->size() >= 1);
    NBUF_EXPECTS(s.driver_resistance > 0.0);
    NBUF_EXPECTS(valid_steps_per_rise(s.steps_per_rise));
    horizon[i] = horizon_steps(s, opt);
  }
  std::iota(queue.begin(), queue.end(), std::size_t{0});
  auto work = [&](std::size_t i) {
    return stages[i].circuit->size() * horizon[i];
  };
  std::stable_sort(queue.begin(), queue.end(),
                   [&](std::size_t a, std::size_t b) {
                     return work(a) > work(b);
                   });

  std::array<Lane, kMarchLanes> lanes;
  std::array<Lane*, kMarchLanes> live{};
  std::size_t live_count = 0;
  std::size_t next = 0;
  // Fills lane `l` from the queue, finishing zero-step stages on the spot;
  // false once the queue is empty.
  auto refill = [&](Lane& l) {
    while (next < queue.size()) {
      const std::size_t i = queue[next++];
      l.load(i, stages[i], horizon[i], opt);
      if (l.horizon > 0) return true;
      l.finish(stages[i], results[i]);
    }
    return false;
  };
  std::vector<SweepOp> schedule;
  auto rebuild = [&] {
    schedule.clear();
    if (live_count < 2) return;
    std::size_t longest = 0;
    for (std::size_t j = 0; j < live_count; ++j)
      longest = std::max(longest, live[j]->x.size());
    for (std::size_t k = 0; k + 1 < longest; ++k) {
      for (std::size_t j = 0; j < live_count; ++j) {
        Lane& l = *live[j];
        if (k + 1 >= l.x.size()) continue;
        const TreeSolver& s = *l.solver;
        schedule.push_back(
            {&l.x[k], &l.x[s.up()[k]], s.ratio()[k], s.g()[k], s.diag()[k]});
      }
    }
  };

  for (Lane& l : lanes)
    if (refill(l)) live[live_count++] = &l;
  rebuild();
  while (live_count > 0) {
    for (std::size_t j = 0; j < live_count; ++j) live[j]->begin_step(ramp);
    if (live_count == 1) {
      live[0]->solver->solve_in_order(live[0]->x);
    } else {
      for (const SweepOp& op : schedule) *op.up += op.ratio * *op.self;
      for (std::size_t j = 0; j < live_count; ++j)
        live[j]->x.back() /= live[j]->solver->diag().back();
      for (auto it = schedule.rbegin(); it != schedule.rend(); ++it)
        *it->self = (*it->self + it->g * *it->up) / it->diag;
    }
    bool changed = false;
    for (std::size_t j = 0; j < live_count;) {
      Lane& l = *live[j];
      if (!l.end_step()) {
        ++j;
        continue;
      }
      l.finish(stages[l.stage], results[l.stage]);
      changed = true;
      if (refill(l)) {
        ++j;
      } else {
        live[j] = live[--live_count];  // the lane goes idle
      }
    }
    if (changed) rebuild();
  }
  return results;
}

std::vector<std::size_t> leaf_sim_nodes(const StageCircuit& c,
                                        const rct::Stage& stage) {
  std::vector<std::size_t> out;
  out.reserve(stage.sinks.size());
  for (const rct::StageSink& s : stage.sinks)
    out.push_back(c.sim_node_of.at(s.node));
  return out;
}

// The dt/2 rerun of a stage: only its leaves' peaks are compared.
StageMarch fine_rerun(const StageCircuit& c, const rct::Stage& stage,
                      const GoldenOptions& opt) {
  return {&c, stage.driver_resistance, opt.steps_per_rise * 2.0,
          leaf_sim_nodes(c, stage), {}};
}

// The convergence check of one stage: its leaves in stage.sinks order, the
// first whose coarse and fine peaks disagree beyond the tolerance.
std::optional<NotConverged> check_leaves(const rct::Stage& stage,
                                         const std::vector<std::size_t>& leaves,
                                         const MarchResult& coarse,
                                         const MarchResult& fine) {
  for (std::size_t k = 0; k < leaves.size(); ++k) {
    const double coarse_peak = coarse.peak[leaves[k]];
    const double fine_peak = fine.peak[leaves[k]];
    const double tol =
        std::max(kConvergenceAtol, kConvergenceRtol * fine_peak);
    if (std::abs(coarse_peak - fine_peak) > tol)
      return NotConverged{stage.sinks[k].node, coarse_peak, fine_peak};
  }
  return std::nullopt;
}

}  // namespace

void GoldenOptions::validate() const {
  auto finite = [](double v) { return std::isfinite(v); };
  NBUF_EXPECTS(finite(coupling_ratio) && coupling_ratio >= 0.0 &&
               coupling_ratio < 1.0);
  NBUF_EXPECTS(finite(aggressor.vdd) && aggressor.vdd > 0.0);
  NBUF_EXPECTS(finite(aggressor.rise) && aggressor.rise > 0.0);
  NBUF_EXPECTS(finite(aggressor.t0) && aggressor.t0 >= 0.0);
  NBUF_EXPECTS(finite(section_length) && section_length > 0.0);
  NBUF_EXPECTS(valid_steps_per_rise(steps_per_rise));
}

ConvergenceError::ConvergenceError(const NotConverged& f)
    : std::runtime_error(convergence_message(f)),
      node(f.node),
      coarse_peak(f.coarse_peak),
      fine_peak(f.fine_peak) {}

GoldenOptions golden_options_from(const lib::Technology& tech) {
  tech.validate();
  GoldenOptions opt;
  opt.coupling_ratio = tech.coupling_ratio;
  opt.aggressor = SaturatedRamp{tech.vdd, tech.aggressor_rise, 0.0};
  return opt;
}

std::vector<MarchResult> march_stages(std::span<const StageMarch> stages,
                                      const GoldenOptions& options) {
  options.validate();
  return march(stages, options);
}

std::vector<std::pair<rct::NodeId, double>> golden_stage_peaks(
    const rct::RoutingTree& tree, const rct::Stage& stage,
    const GoldenOptions& options) {
  options.validate();
  const StageCircuit c = build_stage_circuit(
      tree, stage, options.coupling_ratio, options.section_length);
  std::vector<std::size_t> sims;
  sims.reserve(stage.nodes.size());
  for (rct::NodeId id : stage.nodes) sims.push_back(c.sim_node_of.at(id));
  std::vector<StageMarch> jobs{
      {&c, stage.driver_resistance, options.steps_per_rise, sims, {}}};
  if (options.check_convergence) jobs.push_back(fine_rerun(c, stage, options));
  const std::vector<MarchResult> res = march(jobs, options);
  if (options.check_convergence)
    if (const auto bad =
            check_leaves(stage, jobs[1].peak_nodes, res[0], res[1]))
      throw ConvergenceError(*bad);
  std::vector<std::pair<rct::NodeId, double>> out;
  out.reserve(stage.nodes.size());
  for (std::size_t k = 0; k < stage.nodes.size(); ++k)
    out.emplace_back(stage.nodes[k], res[0].peak[sims[k]]);
  return out;
}

std::vector<GoldenOutcome> golden_analyze(std::span<const GoldenNet> nets,
                                          const GoldenOptions& options) {
  options.validate();
  NBUF_TRACE_SPAN_TAGGED("golden.analyze", nets.size());
  // Every stage of every net, then one march over all of them: the coarse
  // run of each stage, followed by its dt/2 rerun when checking.
  struct NetStages {
    std::vector<rct::Stage> stages;
    std::size_t first = 0;  // index of its first stage among all nets
  };
  std::vector<NetStages> per_net(nets.size());
  std::size_t stage_count = 0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const GoldenNet& net = nets[i];
    NBUF_EXPECTS(net.tree != nullptr && net.buffers != nullptr &&
                 net.lib != nullptr);
    per_net[i].stages = rct::decompose(*net.tree, *net.buffers, *net.lib);
    per_net[i].first = stage_count;
    stage_count += per_net[i].stages.size();
  }
  const std::size_t per_stage = options.check_convergence ? 2 : 1;
  std::vector<StageCircuit> circuits;
  std::vector<StageMarch> jobs;
  circuits.reserve(stage_count);  // jobs point into it
  jobs.reserve(stage_count * per_stage);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    for (const rct::Stage& st : per_net[i].stages) {
      const StageCircuit& c = circuits.emplace_back(build_stage_circuit(
          *nets[i].tree, st, options.coupling_ratio, options.section_length));
      const std::vector<std::size_t> leaves = leaf_sim_nodes(c, st);
      jobs.push_back(
          {&c, st.driver_resistance, options.steps_per_rise, leaves, leaves});
      if (options.check_convergence) jobs.push_back(fine_rerun(c, st, options));
    }
  }
  const std::vector<MarchResult> res = march(jobs, options);

  std::vector<GoldenOutcome> out;
  out.reserve(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    GoldenReport report;
    report.sinks.resize(nets[i].tree->sink_count());
    report.worst_slack = std::numeric_limits<double>::infinity();
    std::optional<NotConverged> failure;
    for (std::size_t s = 0; s < per_net[i].stages.size(); ++s) {
      const rct::Stage& st = per_net[i].stages[s];
      const std::size_t at = (per_net[i].first + s) * per_stage;
      const std::vector<std::size_t>& lv = jobs[at].trace_nodes;
      const MarchResult& coarse = res[at];
      report.steps_marched += coarse.steps_marched;
      report.steps_horizon += coarse.steps_horizon;
      if (options.check_convergence) {
        const MarchResult& fine = res[at + 1];
        report.steps_marched += fine.steps_marched;
        report.steps_horizon += fine.steps_horizon;
        failure = check_leaves(st, lv, coarse, fine);
        if (failure) break;
      }
      for (std::size_t k = 0; k < st.sinks.size(); ++k) {
        const rct::StageSink& s_k = st.sinks[k];
        GoldenLeaf leaf;
        leaf.node = s_k.node;
        leaf.is_buffer_input = s_k.is_buffer_input;
        leaf.sink = s_k.sink;
        leaf.peak = coarse.peak[lv[k]];
        leaf.width = coarse.width[lv[k]];
        leaf.margin = s_k.noise_margin;
        leaf.slack = leaf.margin - leaf.peak;
        report.leaves.push_back(leaf);
        if (!s_k.is_buffer_input) report.sinks[s_k.sink.value()] = leaf;
        report.worst_slack = std::min(report.worst_slack, leaf.slack);
        if (leaf.slack < 0.0) ++report.violation_count;
      }
    }
    if (failure) {
      out.emplace_back(*failure);
    } else {
      out.emplace_back(std::move(report));
    }
  }
  return out;
}

GoldenReport golden_analyze(const rct::RoutingTree& tree,
                            const rct::BufferAssignment& buffers,
                            const lib::BufferLibrary& lib,
                            const GoldenOptions& options) {
  const GoldenNet net{&tree, &buffers, &lib};
  GoldenOutcome outcome = std::move(golden_analyze({&net, 1}, options).front());
  if (const auto* bad = std::get_if<NotConverged>(&outcome))
    throw ConvergenceError(*bad);
  return std::get<GoldenReport>(std::move(outcome));
}

GoldenReport golden_analyze_unbuffered(const rct::RoutingTree& tree,
                                       const GoldenOptions& options) {
  static const lib::BufferLibrary empty_lib;
  return golden_analyze(tree, rct::BufferAssignment{}, empty_lib, options);
}

}  // namespace nbuf::sim
