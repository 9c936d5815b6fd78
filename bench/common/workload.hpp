// Shared workload configuration for the Section V reproduction benches.
//
// Every table bench runs on the same seed-stable 500-net testbench so rows
// are directly comparable across binaries, exactly as the paper reuses its
// 500 PowerPC nets across Tables I-IV. The sized variant and the phases
// helper serve the timing benches (figI/figK): one workload loader instead
// of per-binary copies, and one JSON shape for per-phase span timings.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "batch/batch.hpp"
#include "lib/buffer.hpp"
#include "netgen/netgen.hpp"
#include "obs/export.hpp"
#include "util/json.hpp"

namespace nbuf::bench {

inline netgen::TestbenchOptions paper_testbench_options() {
  netgen::TestbenchOptions o;  // defaults already mirror Section V
  o.net_count = 500;
  o.seed = 9851;
  return o;
}

inline std::vector<netgen::GeneratedNet> paper_testbench(
    const lib::BufferLibrary& lib) {
  std::fprintf(stderr, "[workload] generating 500-net testbench...\n");
  auto nets = netgen::generate_testbench(lib, paper_testbench_options());
  std::fprintf(stderr, "[workload] done.\n");
  return nets;
}

// Paper-shaped testbench at an arbitrary size, already adapted to batch
// input. Both timing benches (and their --count/--quick modes) load through
// here so the workload is one definition, not one copy per binary.
inline std::vector<batch::BatchNet> sized_testbench(
    const lib::BufferLibrary& lib, std::size_t count,
    std::uint64_t seed = 9851) {
  netgen::TestbenchOptions o = paper_testbench_options();
  o.net_count = count;
  o.seed = seed;
  std::fprintf(stderr, "[workload] generating %zu-net testbench...\n",
               count);
  auto nets = batch::from_generated(netgen::generate_testbench(lib, o));
  std::fprintf(stderr, "[workload] done.\n");
  return nets;
}

// Per-phase span timings as one JSON object, routed through the
// MetricsRegistry ("trace.<name>.count" counters + "trace.<name>.seconds"
// and ".self_seconds" gauges) so the BENCH JSONs and `nbuf_cli --metrics`
// agree on the data path. Renders
// {"<name>": {"count": N, "seconds": S, "self_seconds": F}, ...}, name-sorted;
// splice into a BENCH document as the value of a "phases" key.
inline std::string phases_json(const obs::TraceData& trace) {
  obs::MetricsRegistry reg;
  obs::record_trace(reg, trace);
  const obs::MetricsSnapshot snap = reg.snapshot();
  util::JsonWriter j;
  j.begin_object();
  for (const obs::MetricsSnapshot::CounterRow& c : snap.counters) {
    constexpr std::string_view prefix = "trace.";
    constexpr std::string_view suffix = ".count";
    if (c.name.size() <= prefix.size() + suffix.size() ||
        c.name.compare(0, prefix.size(), prefix) != 0 ||
        c.name.compare(c.name.size() - suffix.size(), suffix.size(),
                       suffix) != 0)
      continue;
    const std::string name = c.name.substr(
        prefix.size(), c.name.size() - prefix.size() - suffix.size());
    const auto gauge = [&](const char* field) {
      const std::string key = std::string(prefix) + name + "." + field;
      for (const obs::MetricsSnapshot::GaugeRow& g : snap.gauges)
        if (g.name == key) return g.value;
      return 0.0;
    };
    j.key(name);
    j.begin_object();
    j.field("count", static_cast<std::size_t>(c.value));
    j.field("seconds", gauge("seconds"));
    j.field("self_seconds", gauge("self_seconds"));
    j.end_object();
  }
  j.end_object();
  return j.str();
}

}  // namespace nbuf::bench
