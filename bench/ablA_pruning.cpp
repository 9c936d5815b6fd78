// Ablation A-1: candidate pruning on/off in the Van Ginneken DP.
//
// DESIGN.md calls out (load, slack) dominance pruning (paper Step 7,
// Theorem 5) as a key design decision. This ablation measures what pruning
// buys: candidates created, peak list size, and runtime — and checks that
// the MaxSlack optimum on these two-pin nets is unchanged. That is what it
// checks, not a proof: Problem 3's fewest-buffers answer can lose its
// optimum to pruning (DESIGN.md §6). The "off" rows
// run the reference kernel (core::optimize routes the unpruned DP there),
// so their CPU column also carries the fast-vs-reference kernel gap.
#include <cmath>
#include <chrono>
#include <cstdio>

#include "common/verdict.hpp"
#include "core/vanginneken.hpp"
#include "seg/segment.hpp"
#include "steiner/builders.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace nbuf;
  using namespace nbuf::units;

  const auto library = lib::default_library();
  const auto tech = lib::default_technology();

  std::printf("== Ablation A-1: dominance pruning on/off (two-pin nets) "
              "==\n\n");
  util::Table t({"L (um)", "pruning", "candidates", "max list", "CPU (ms)",
                 "slack (ps)"});
  bool slack_preserved = true;
  for (double len : {3000.0, 6000.0, 9000.0, 12000.0}) {
    double slack_on = 0.0, slack_off = 0.0;
    for (bool prune : {true, false}) {
      rct::SinkInfo sink;
      sink.name = "s";
      sink.cap = 15.0 * fF;
      sink.noise_margin = 0.8;
      sink.required_arrival = 2.0 * ns;
      auto net = steiner::make_two_pin(
          len, rct::Driver{"d", 150.0, 30 * ps}, sink, tech);
      seg::segment(net, {500.0});
      core::VgOptions opt;
      opt.noise_constraints = true;
      opt.prune_candidates = prune;
      opt.max_buffers = 12;
      const auto t0 = std::chrono::steady_clock::now();
      const auto res = core::optimize(net, library, opt);
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      t.add_row({util::Table::num(len, 0), prune ? "on" : "off",
                 util::Table::integer(
                     static_cast<long long>(res.stats.candidates_generated)),
                 util::Table::integer(
                     static_cast<long long>(res.stats.peak_list_size)),
                 util::Table::num(ms, 2),
                 util::Table::num(res.slack / ps, 2)});
      (prune ? slack_on : slack_off) = res.slack;
    }
    if (std::abs(slack_on - slack_off) > 1e-13) slack_preserved = false;
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("pruning keeps the MaxSlack optimum on two-pin nets -> %s\n",
              bench::verdict(slack_preserved));
  return bench::verdict_exit_code();
}
