// Ablation A-4: slew-constrained buffering.
//
// Industrial flows bound the transition time at every gate input; this
// sweep shows how the max-slew limit drives buffer counts and how the slew
// constraint interacts with the paper's noise constraint (both are
// "per-stage reach" limits: noise caps unbuffered current-length, slew caps
// unbuffered RC-length).
#include <cstdio>

#include "common/verdict.hpp"
#include "core/vanginneken.hpp"
#include "elmore/slew.hpp"
#include "seg/segment.hpp"
#include "steiner/builders.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace nbuf;
  using namespace nbuf::units;

  const auto library = lib::default_library();
  const auto tech = lib::default_technology();

  std::printf("== Ablation A-4: buffers needed vs max-slew limit "
              "(12 mm two-pin, generous RAT) ==\n\n");
  util::Table t({"max slew (ps)", "buffers (slew only)",
                 "buffers (slew + noise)", "achieved worst slew (ps)"});
  std::size_t prev = 0;
  bool monotone = true;
  for (double limit : {2000.0, 1000.0, 500.0, 300.0, 200.0, 120.0, 80.0}) {
    rct::SinkInfo sink;
    sink.name = "s";
    sink.cap = 15.0 * fF;
    sink.noise_margin = 0.8;
    sink.required_arrival = 50.0 * ns;
    auto net = steiner::make_two_pin(
        12000.0, rct::Driver{"d", 150.0, 30 * ps}, sink, tech);
    seg::segment(net, {400.0});

    core::VgOptions slew_only;
    slew_only.noise_constraints = false;
    slew_only.max_slew = limit * ps;
    slew_only.objective = core::VgObjective::MinBuffersMeetingConstraints;
    auto both = slew_only;
    both.noise_constraints = true;
    const auto r1 = core::optimize(net, library, slew_only);
    const auto r2 = core::optimize(net, library, both);
    const auto achieved = elmore::slews(net, r2.buffers, library);
    t.add_row({util::Table::num(limit, 0),
               r1.feasible ? util::Table::integer(
                                 static_cast<long long>(r1.buffer_count))
                           : "infeasible",
               r2.feasible ? util::Table::integer(
                                 static_cast<long long>(r2.buffer_count))
                           : "infeasible",
               util::Table::num(achieved.max_slew / ps, 1)});
    if (r1.feasible) {
      if (r1.buffer_count < prev) monotone = false;
      prev = r1.buffer_count;
    }
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("shape checks: tighter slew -> more buffers (monotone) -> "
              "%s; noise adds buffers only when it binds beyond slew\n",
              bench::verdict(monotone));
  return bench::verdict_exit_code();
}
