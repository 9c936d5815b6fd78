// Shared workload configuration for the Section V reproduction benches.
//
// Every table bench runs on the same seed-stable 500-net testbench so rows
// are directly comparable across binaries, exactly as the paper reuses its
// 500 PowerPC nets across Tables I-IV. The sized variant and the helpers
// below serve the timing benches (figI/figK): one workload loader, one
// command line and one JSON shape for per-phase span timings instead of
// per-binary copies.
#pragma once

#include <cstdio>
#include <fstream>
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

// The timing benches' command line, `[--quick] [--out FILE]`.
struct TimingArgs {
  bool quick = false;
  std::string out;     // the document's path; holds the default on entry
  std::ofstream file;  // opened by parse_timing_args
};

// Parses argv into `args` and opens --out before any timed run, so an
// unwritable path fails at once instead of after the whole bench. Returns
// 0, or 2 after printing the usage line or the path that cannot be opened.
inline int parse_timing_args(int argc, char** argv, TimingArgs& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      args.quick = true;
    } else if (a == "--out" && i + 1 < argc) {
      args.out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out FILE]\n", argv[0]);
      return 2;
    }
  }
  args.file.open(args.out);
  if (!args.file) {
    std::fprintf(stderr, "%s: cannot open --out %s for writing\n", argv[0],
                 args.out.c_str());
    return 2;
  }
  return 0;
}

// Writes the finished document to --out; false after naming the path when
// the write fails.
inline bool write_document(TimingArgs& args, const util::JsonWriter& j) {
  args.file << j.str() << '\n';
  args.file.close();
  if (!args.file) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return false;
  }
  std::printf("wrote %s\n", args.out.c_str());
  return true;
}

// Per-phase span timings as one JSON object value, routed through the
// MetricsRegistry ("trace.<name>.count" counters + "trace.<name>.seconds"
// and ".self_seconds" gauges) so the BENCH JSONs and `nbuf_cli --metrics`
// agree on the data path. Writes
// {"<name>": {"count": N, "seconds": S, "self_seconds": F}, ...}, name-sorted,
// into `j` (call it after the document's "phases" key).
inline void write_phases(util::JsonWriter& j, const obs::TraceData& trace) {
  obs::MetricsRegistry reg;
  obs::record_trace(reg, trace);
  const obs::MetricsSnapshot snap = reg.snapshot();
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
}

}  // namespace nbuf::bench
