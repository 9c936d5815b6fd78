// Figure F-E: the delay-fidelity ladder — Elmore vs moment-based D2M vs
// golden transient 50% delay.
//
// The paper adopts Elmore *because* its additivity makes the DP provably
// optimal, accepting its pessimism (footnote 4 discusses moment-based
// alternatives). This bench quantifies that pessimism on the exact nets the
// optimizer sees: Elmore overestimates the simulated 50% delay by 1.2-2x on
// long resistive nets, D2M tracks simulation closely, yet all three rank
// buffered solutions the same way — which is why Elmore-optimal buffering
// is near-optimal under the accurate models too.
#include <cmath>
#include <cstdio>

#include "common/verdict.hpp"
#include "core/tool.hpp"
#include "moments/moments.hpp"
#include "sim/delay.hpp"
#include "steiner/builders.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace nbuf;
  using namespace nbuf::units;

  const auto library = lib::default_library();
  const auto tech = lib::default_technology();

  std::printf("== Fig F-E.1: unbuffered two-pin nets, RC delay only (ps) "
              "==\n\n");
  util::Table t({"L (um)", "Elmore", "D2M", "golden 50%", "Elmore/golden",
                 "D2M/golden"});
  for (double len : {1000.0, 2000.0, 4000.0, 6000.0, 9000.0, 12000.0}) {
    rct::SinkInfo sink;
    sink.name = "s";
    sink.cap = 15.0 * fF;
    sink.noise_margin = 0.8;
    auto net = steiner::make_two_pin(len, rct::Driver{"d", 150.0, 0.0},
                                     sink, tech);
    const auto m =
        moments::analyze(net, rct::BufferAssignment{}, lib::BufferLibrary{});
    sim::StepDelayOptions sopt;
    sopt.driver_rise = 1e-12;
    sopt.steps_per_rise = 2.0;
    const auto s =
        sim::step_delays(net, rct::BufferAssignment{}, lib::BufferLibrary{},
                         sopt);
    const double golden = s.sinks[0].delay;
    t.add_row({util::Table::num(len, 0),
               util::Table::num(m.sinks[0].elmore / ps, 1),
               util::Table::num(m.sinks[0].d2m / ps, 1),
               util::Table::num(golden / ps, 1),
               util::Table::num(m.sinks[0].elmore / golden, 2),
               util::Table::num(m.sinks[0].d2m / golden, 2)});
  }
  std::printf("%s\n", t.render().c_str());

  std::printf("== Fig F-E.2: do the three models rank buffered solutions "
              "identically? ==\n\n");
  // Take one 10 mm net; evaluate DelayOpt(k) solutions for k = 0..4 under
  // all three models and check the ranking by delay is the same.
  rct::SinkInfo sink;
  sink.name = "s";
  sink.cap = 15.0 * fF;
  sink.noise_margin = 0.8;
  sink.required_arrival = 2.0 * ns;
  auto net = steiner::make_two_pin(10000.0, rct::Driver{"d", 150.0, 30 * ps},
                                   sink, tech);
  core::ToolOptions topt;
  topt.vg.noise_constraints = false;
  topt.vg.max_buffers = 4;
  const auto res = core::run(net, library, topt);

  util::Table t2({"k", "Elmore (ps)", "D2M (ps)", "golden 50% (ps)"});
  std::vector<double> e, d, g;
  for (const auto& cb : res.vg.per_count) {
    const auto a = core::assignment_for(cb.plan);
    const auto m = moments::analyze(res.tree, a, library);
    const auto s = sim::step_delays(res.tree, a, library);
    t2.add_row({util::Table::integer(static_cast<long long>(cb.count)),
                util::Table::num(m.max_elmore / ps, 1),
                util::Table::num(m.max_d2m / ps, 1),
                util::Table::num(s.max_delay / ps, 1)});
    e.push_back(m.max_elmore);
    d.push_back(m.max_d2m);
    g.push_back(s.max_delay);
  }
  std::printf("%s\n", t2.render().c_str());
  bool same_ranking = true;
  for (std::size_t i = 1; i < e.size(); ++i) {
    const bool re = e[i] < e[i - 1];
    const bool rd = d[i] < d[i - 1];
    const bool rg = g[i] < g[i - 1];
    if (re != rd || rd != rg) same_ranking = false;
  }
  std::printf("all three models agree on whether each extra buffer helps "
              "-> %s\n",
              bench::verdict(same_ranking));
  return bench::verdict_exit_code();
}
