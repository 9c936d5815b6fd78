// Self-tests of the benchmark itself (README.md, "Self-tests"):
//
//   1. the percentile helper applies the "ten samples beyond" rule;
//   2. the result line parses with obs/json.hpp and carries every metric
//      BENCHMARK.json names, with its unit (end-to-end with --trace 0,
//      per-layer with --trace 1);
//   3. a different seed changes the inputs but not the metric names;
//   4. a minimal-size run of each workload exits 0 with zero failed
//      operations.
//
//   perfbench_selftest <path-to-perfbench-binary>
//
// Exit 0 when every check holds; each failure is printed.
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"
#include "io/netfile.hpp"
#include "obs/json.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;
using nbuf::obs::JsonValue;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

// name -> unit, as BENCHMARK.json lists them under `section`.
std::map<std::string, std::string> declared(const JsonValue& doc,
                                            const char* section) {
  std::map<std::string, std::string> out;
  for (const JsonValue& m : doc.at(section).array)
    out[m.at("name").string] = m.at("unit").string;
  return out;
}

struct Run {
  int status = -1;
  std::string last_line;
};

Run run_binary(const std::string& bin, const std::string& workload,
               int seed, int trace) {
  const std::string cmd = bin + " --workload " + workload + " --seed " +
                          std::to_string(seed) +
                          " --seconds 1 --size tiny --work-dir "
                          "perfbench_selftest_work --trace " +
                          std::to_string(trace);
  Run r;
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[1 << 16];
  while (std::fgets(buf, sizeof(buf), p) != nullptr) {
    std::string line = buf;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
      line.pop_back();
    if (!line.empty()) r.last_line = line;
  }
  const int st = pclose(p);
  r.status = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
  return r;
}

void test_percentile_rule() {
  std::vector<double> xs;
  for (int i = 1; i <= 999; ++i) xs.push_back(i);
  const Percentile short_run = percentile(xs, 0.99);
  expect(!short_run.valid && short_run.beyond == 9,
         "p99 of 999 samples must be refused (9 beyond)");
  xs.push_back(1000);
  const Percentile enough = percentile(xs, 0.99);
  expect(enough.valid && enough.beyond == 10 && enough.value == 990.0,
         "p99 of 1000 samples is the 990th, with 10 beyond");
  expect(samples_needed(0.99) == 1000, "p99 needs 1000 samples");
  expect(samples_needed(0.50) == 20, "p50 needs 20 samples");
  expect(percentile({5, 1, 3, 2, 4}, 0.5).value == 3.0, "p50 of 1..5 is 3");
  expect(median({4, 1, 3, 2}) == 2.5, "median of 1..4 is 2.5");
}

std::string net_text(const nbuf::batch::BatchNet& n,
                     const nbuf::lib::BufferLibrary& lib) {
  std::ostringstream out;
  nbuf::io::write_net(out, n.name, n.tree, {}, lib);
  return out.str();
}

void test_seed_changes_inputs() {
  const auto lib = nbuf::lib::default_library();
  RunConfig a, b;
  a.scale = b.scale = Scale::tiny();
  a.seed = 1;
  b.seed = 2;
  a.work_dir = "perfbench_selftest_work/a";
  b.work_dir = "perfbench_selftest_work/b";
  const auto texts = [&](const std::vector<nbuf::batch::BatchNet>& nets) {
    std::string all;
    for (const auto& n : nets) all += net_text(n, lib);
    return all;
  };
  expect(texts(make_chains(a, lib)) != texts(make_chains(b, lib)),
         "chain512 inputs must depend on the seed");
  expect(texts(make_chains(a, lib)) == texts(make_chains(a, lib)),
         "chain512 inputs must be a function of the seed");
  expect(texts(make_eco_trees(a)) != texts(make_eco_trees(b)),
         "serve_eco inputs must depend on the seed");
  const auto files_text = [](const std::vector<std::string>& files) {
    std::string all;
    for (const std::string& f : files) {
      std::ifstream in(f);
      all += std::string(std::istreambuf_iterator<char>(in), {});
    }
    return all;
  };
  expect(files_text(write_section5_inputs(a, lib)) !=
             files_text(write_section5_inputs(b, lib)),
         "section5 inputs must depend on the seed");
}

void test_runs(const std::string& bin, const JsonValue& benchmark) {
  const auto end_to_end = declared(benchmark, "end_to_end");
  const auto per_layer = declared(benchmark, "per_layer");
  for (const std::string& w : workload_names()) {
    for (const int trace : {0, 1}) {
      const auto& want = trace == 0 ? end_to_end : per_layer;
      std::vector<std::string> names[2];
      for (const int seed : {1, 2}) {
        const std::string tag = w + " seed " + std::to_string(seed) +
                                " trace " + std::to_string(trace);
        const Run r = run_binary(bin, w, seed, trace);
        expect(r.status == 0, tag + ": exit status " + std::to_string(r.status));
        JsonValue doc;
        try {
          doc = nbuf::obs::parse_json(r.last_line);
        } catch (const std::exception& e) {
          expect(false, tag + ": result line does not parse: " + e.what());
          continue;
        }
        expect(doc.is_object() && doc.object.size() == 4 &&
                   doc.has("correct") && doc.has("attempted") &&
                   doc.has("failed") && doc.has("metrics"),
               tag + ": result keys");
        expect(doc.at("correct").boolean, tag + ": correct");
        expect(doc.at("attempted").number >= 1.0, tag + ": attempted >= 1");
        expect(doc.at("failed").number == 0.0, tag + ": zero failed");
        const JsonValue& metrics = doc.at("metrics");
        for (const auto& [name, unit] : want) {
          if (!metrics.has(name)) {
            expect(false, tag + ": missing metric " + name);
            continue;
          }
          const JsonValue& m = metrics.at(name);
          expect(m.at("value").is_number(), tag + ": " + name + " value");
          expect(m.at("unit").string == unit,
                 tag + ": " + name + " unit " + m.at("unit").string +
                     " != " + unit);
        }
        expect(metrics.object.size() == want.size(),
               tag + ": extra metrics beyond BENCHMARK.json");
        for (const auto& [name, value] : metrics.object)
          names[seed - 1].push_back(name);
      }
      expect(names[0] == names[1],
             w + ": metric names must not depend on the seed");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <perfbench binary>\n");
    return 2;
  }
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  JsonValue benchmark;
  try {
    benchmark = nbuf::obs::parse_json(text);
  } catch (const std::exception& e) {
    std::printf("FAIL: BENCHMARK.json does not parse: %s\n", e.what());
    return 1;
  }
  test_percentile_rule();
  test_seed_changes_inputs();
  test_runs(argv[1], benchmark);
  std::filesystem::remove_all("perfbench_selftest_work");
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
