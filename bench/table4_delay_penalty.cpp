// Table IV reproduction: average delay reduction from buffer insertion,
// grouped by the number of buffers BuffOpt inserted, comparing BuffOpt with
// DelayOpt at the SAME buffer count (the paper's apples-to-apples setup).
//
// Paper: over the 423 buffered nets the weighted average reduction was
// 301.1 ps (BuffOpt) vs 307.2 ps (DelayOpt) — a 1.99% penalty for also
// guaranteeing noise correctness.
#include <cstdio>
#include <map>

#include "common/verdict.hpp"
#include "common/workload.hpp"
#include "core/tool.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace nbuf;
  using namespace nbuf::units;

  const auto library = lib::default_library();
  const auto nets = bench::paper_testbench(library);

  struct Group {
    std::size_t nets = 0;
    double buff_reduction = 0.0;   // seconds, summed
    double delay_reduction = 0.0;  // seconds, summed
  };
  std::map<std::size_t, Group> groups;  // keyed by #buffers inserted
  double buff_total = 0.0, delay_total = 0.0;
  std::size_t total_nets = 0;
  // Subset where the noise constraints actually bind: DelayOpt at the
  // matched count still violates noise, so BuffOpt was forced to deviate
  // from the delay-optimal placement.
  std::size_t binding_nets = 0;
  double binding_buff = 0.0, binding_delay = 0.0;

  for (const auto& net : nets) {
    const auto buff = core::run_buffopt(net.tree, library);
    const std::size_t k = buff.vg.buffer_count;
    if (k == 0) continue;  // paper groups only nets that received buffers
    const auto delay = core::run_delayopt(net.tree, library, k);
    Group& g = groups[k];
    const double br =
        buff.timing_before.max_delay - buff.timing_after.max_delay;
    const double dr =
        delay.timing_before.max_delay - delay.timing_after.max_delay;
    g.nets += 1;
    g.buff_reduction += br;
    g.delay_reduction += dr;
    buff_total += br;
    delay_total += dr;
    ++total_nets;
    if (delay.noise_after.violation_count > 0) {
      ++binding_nets;
      binding_buff += buff.timing_after.max_delay;
      binding_delay += delay.timing_after.max_delay;
    }
  }

  std::printf(
      "== Table IV: average delay reduction (ps) by buffers inserted ==\n\n");
  util::Table t({"buffers", "nets", "BuffOpt avg", "DelayOpt avg",
                 "penalty"});
  for (const auto& [k, g] : groups) {
    const double ba = g.buff_reduction / static_cast<double>(g.nets) / ps;
    const double da = g.delay_reduction / static_cast<double>(g.nets) / ps;
    t.add_row({util::Table::integer(static_cast<long long>(k)),
               util::Table::integer(static_cast<long long>(g.nets)),
               util::Table::num(ba, 1), util::Table::num(da, 1),
               util::Table::num(da - ba, 1) + " ps"});
  }
  std::printf("%s\n", t.render().c_str());

  const double buff_avg = buff_total / static_cast<double>(total_nets) / ps;
  const double delay_avg = delay_total / static_cast<double>(total_nets) / ps;
  const double penalty = (delay_avg - buff_avg) / delay_avg;
  std::printf("weighted average reduction over %zu buffered nets: "
              "BuffOpt %.1f ps, DelayOpt %.1f ps\n",
              total_nets, buff_avg, delay_avg);
  std::printf("average delay penalty for noise avoidance: %.2f%% "
              "(paper: 1.99%%)\n",
              penalty * 100.0);
  if (binding_nets > 0) {
    std::printf("nets where noise binds (DelayOpt at matched count still "
                "violates): %zu; on those, BuffOpt delay is %.2f%% above "
                "the delay-only optimum\n",
                binding_nets,
                (binding_buff / binding_delay - 1.0) * 100.0);
  }
  std::printf("\npaper shape check: penalty < 5%% and DelayOpt >= BuffOpt "
              "-> %s\n",
              bench::verdict(penalty < 0.05 &&
                             delay_avg >= buff_avg - 1e-9));
  return bench::verdict_exit_code();
}
