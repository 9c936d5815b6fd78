// Figure F-C: conservatism of the Devgan metric vs the golden simulator.
//
// The metric is a provable upper bound on peak coupled noise (Section II-B);
// this bench quantifies the bound's tightness: peak-noise series over a
// two-pin length sweep and the bound ratio distribution over random
// multi-sink nets — the quantitative backdrop for Table II's "423 metric vs
// 386 golden" conservatism gap.
#include <cstdio>

#include "common/verdict.hpp"
#include "noise/devgan.hpp"
#include "sim/golden.hpp"
#include "steiner/builders.hpp"
#include "steiner/steiner.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace nbuf;
  using namespace nbuf::units;

  const auto tech = lib::default_technology();
  const auto gopt = sim::golden_options_from(tech);

  std::printf("== Fig F-C.1: metric vs simulated peak noise, two-pin sweep "
              "==\n\n");
  {
    util::Table t({"L (um)", "metric (V)", "golden peak (V)", "ratio"});
    for (double len : {500.0, 1000.0, 2000.0, 3000.0, 4500.0, 6000.0,
                       9000.0, 12000.0}) {
      rct::SinkInfo sink;
      sink.name = "s";
      sink.cap = 15.0 * fF;
      sink.noise_margin = 0.8;
      auto net = steiner::make_two_pin(
          len, rct::Driver{"d", 150.0, 30 * ps}, sink, tech);
      const double m = noise::analyze_unbuffered(net).sinks[0].noise;
      const double g =
          sim::golden_analyze_unbuffered(net, gopt).sinks[0].peak;
      t.add_row({util::Table::num(len, 0), util::Table::num(m, 3),
                 util::Table::num(g, 3), util::Table::num(m / g, 2)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("shape: ratio >= 1 everywhere (upper bound); tight for "
                "short nets, increasingly conservative with length (the "
                "metric's steady-state assumption ignores the aggressor's "
                "finite transition time — the caveat Section II-B "
                "discusses)\n\n");
  }

  std::printf("== Fig F-C.2: bound ratio over 40 random multi-sink nets "
              "==\n\n");
  {
    util::Rng rng(2718);
    std::vector<double> ratios;
    std::size_t bound_violations = 0;
    for (int trial = 0; trial < 40; ++trial) {
      const int sinks = rng.uniform_int(2, 10);
      const double span = rng.uniform(2000.0, 9000.0);
      std::vector<steiner::PinSpec> pins;
      for (int i = 0; i < sinks; ++i) {
        steiner::PinSpec p;
        p.at = {rng.uniform(0.2 * span, span), rng.uniform(0.0, span)};
        p.info.name = "s" + std::to_string(i);
        p.info.cap = rng.uniform(5 * fF, 30 * fF);
        p.info.noise_margin = 0.8;
        pins.push_back(p);
      }
      auto net = steiner::build_tree(
          {0, 0}, rct::Driver{"d", rng.uniform(60.0, 350.0), 30 * ps}, pins,
          tech);
      const auto metric = noise::analyze_unbuffered(net);
      const auto golden = sim::golden_analyze_unbuffered(net, gopt);
      for (std::size_t s = 0; s < metric.sinks.size(); ++s) {
        if (golden.sinks[s].peak <= 1e-6) continue;
        const double ratio = metric.sinks[s].noise / golden.sinks[s].peak;
        ratios.push_back(ratio);
        if (ratio < 1.0 - 1e-9) ++bound_violations;
      }
    }
    const auto s = util::summarize(ratios);
    util::Table t({"stat", "metric/golden ratio"});
    t.add_row({"sinks analyzed",
               util::Table::integer(static_cast<long long>(s.count))});
    t.add_row({"min", util::Table::num(s.min, 3)});
    t.add_row({"mean", util::Table::num(s.mean, 3)});
    t.add_row({"p90", util::Table::num(util::percentile(ratios, 0.9), 3)});
    t.add_row({"max", util::Table::num(s.max, 3)});
    std::printf("%s\n", t.render().c_str());
    std::printf("upper-bound property violated at %zu sinks (must be 0) -> "
                "%s\n",
                bound_violations,
                bench::verdict(bound_violations == 0, bench::Miss::Broken));
    return bench::verdict_exit_code();
  }
}
