// Ablation A-3: simultaneous wire sizing + buffer insertion vs buffering
// alone (the Lillis et al. extension the paper's Algorithm 3 descends from).
//
// Reports, per net length: delay-optimal slack with buffers only, with
// buffers + 1x/2x/4x wire widths, the improvement, and the number of
// widened wires — plus the noise-mode variant showing sizing also buys
// noise headroom (wider wires are less resistive).
#include <cmath>
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
  const auto widths = lib::default_wire_widths();

  std::printf("== Ablation A-3: buffers only vs buffers + wire sizing "
              "(two-pin, delay mode) ==\n\n");
  util::Table t({"L (um)", "slack buf-only (ps)", "slack buf+size (ps)",
                 "delay gain (ps)", "widened wires"});
  bool monotone_gain = true;
  for (double len : {2000.0, 4000.0, 6000.0, 9000.0, 12000.0, 16000.0}) {
    rct::SinkInfo sink;
    sink.name = "s";
    sink.cap = 15.0 * fF;
    sink.noise_margin = 0.8;
    sink.required_arrival = 2.0 * ns;
    auto net = steiner::make_two_pin(
        len, rct::Driver{"d", 150.0, 30 * ps}, sink, tech);
    seg::segment(net, {500.0});

    core::VgOptions plain;
    plain.noise_constraints = false;
    auto sized = plain;
    sized.wire_widths = widths;
    const auto r0 = core::optimize(net, library, plain);
    const auto r1 = core::optimize(net, library, sized);
    const double gain = (r1.slack - r0.slack) / ps;
    if (gain < -1e-6) monotone_gain = false;
    t.add_row({util::Table::num(len, 0),
               util::Table::num(r0.slack / ps, 1),
               util::Table::num(r1.slack / ps, 1),
               util::Table::num(gain, 1),
               util::Table::integer(
                   static_cast<long long>(r1.wire_widths.size()))});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("shape check: sizing never hurts (DP superset) -> %s\n\n",
              bench::verdict(monotone_gain, bench::Miss::Broken));

  std::printf("== noise mode: buffers needed with and without sizing ==\n\n");
  util::Table t2({"L (um)", "buffers (buf-only)", "buffers (buf+size)"});
  for (double len : {4000.0, 8000.0, 12000.0, 16000.0}) {
    rct::SinkInfo sink;
    sink.name = "s";
    sink.cap = 15.0 * fF;
    sink.noise_margin = 0.8;
    sink.required_arrival = 50.0 * ns;  // generous: noise drives the count
    auto net = steiner::make_two_pin(
        len, rct::Driver{"d", 150.0, 30 * ps}, sink, tech);
    seg::segment(net, {500.0});
    core::VgOptions plain;
    plain.noise_constraints = true;
    plain.objective = core::VgObjective::MinBuffersMeetingConstraints;
    auto sized = plain;
    sized.wire_widths = widths;
    const auto r0 = core::optimize(net, library, plain);
    const auto r1 = core::optimize(net, library, sized);
    t2.add_row({util::Table::num(len, 0),
                util::Table::integer(
                    static_cast<long long>(r0.buffer_count)),
                util::Table::integer(
                    static_cast<long long>(r1.buffer_count))});
  }
  std::printf("%s\n", t2.render().c_str());
  std::printf("shape: widening wires lowers their resistance, stretching "
              "the Theorem-1 span, so sizing can substitute for buffers\n");
  return bench::verdict_exit_code();
}
