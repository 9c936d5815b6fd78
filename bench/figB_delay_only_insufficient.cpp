// Figure F-B: Theorem 2 in practice — delay-optimal buffering cannot
// guarantee noise correctness.
//
// Sweep net length for a two-pin net: at each length, run unconstrained
// DelayOpt and report the worst noise of its solution against the 0.8 V
// margin, alongside BuffOpt's delay at the same buffer count. Shows the
// regime where the delay-optimal solution violates noise while the
// noise-aware one gives it up for < a few percent of delay.
#include <cstdio>

#include "common/verdict.hpp"
#include "core/tool.hpp"
#include "steiner/builders.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace nbuf;
  using namespace nbuf::units;

  const auto library = lib::default_library();
  const auto tech = lib::default_technology();

  std::printf("== Fig F-B: noise of delay-optimal vs noise-aware buffering "
              "(two-pin sweep) ==\n\n");
  util::Table t({"L (um)", "DelayOpt buffers", "DelayOpt worst noise (V)",
                 "violates?", "BuffOpt delay penalty"});
  std::size_t violating_lengths = 0;
  for (double len : {2000.0, 3500.0, 5000.0, 6500.0, 8000.0, 9500.0,
                     11000.0, 12500.0, 14000.0}) {
    rct::SinkInfo sink;
    sink.name = "s";
    sink.cap = 15.0 * fF;
    sink.noise_margin = 0.8;
    sink.required_arrival = 0.0;
    auto net = steiner::make_two_pin(len, rct::Driver{"d", 150.0, 30 * ps},
                                     sink, tech);

    // DelayOpt with a small budget (the regime of Table III's DelayOpt(k)).
    const auto d = core::run_delayopt(net, library, 2);
    const double worst_noise = 0.8 - d.noise_after.worst_slack;
    const bool violates = d.noise_after.violation_count > 0;
    violating_lengths += violates;

    // BuffOpt at the same buffer count, for the delay comparison.
    core::ToolOptions bopt;
    bopt.vg.noise_constraints = true;
    bopt.vg.max_buffers = std::max<std::size_t>(d.vg.buffer_count, 1);
    const auto b = core::run(net, library, bopt);
    std::string penalty = "n/a";
    if (b.vg.feasible && b.noise_after.violation_count == 0) {
      penalty = util::Table::percent(
          (b.timing_after.max_delay - d.timing_after.max_delay) /
          d.timing_after.max_delay);
    }
    t.add_row({util::Table::num(len, 0),
               util::Table::integer(
                   static_cast<long long>(d.vg.buffer_count)),
               util::Table::num(worst_noise, 3), violates ? "YES" : "no",
               penalty});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("paper shape check (Theorem 2): delay-optimal solutions "
              "violate noise beyond some length -> %s\n",
              bench::verdict(violating_lengths > 0));
  return bench::verdict_exit_code();
}
