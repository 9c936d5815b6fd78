// perfbench: the nbuf benchmark binary (README.md).
//
//   perfbench --workload section5|chain512|serve_eco --seed N --seconds S
//             --trace 0|1 [--work-dir DIR] [--commit SHA] [--size full|tiny]
//
// Prints a "# host {...}" fingerprint line, then, as the last line of
// stdout, the result object {"correct", "attempted", "failed", "metrics"}.
// Exit 0 once the result line is printed; 2 on usage errors and 1 when the
// run could not finish (no result line then).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload section5|chain512|serve_eco "
               "--seed N --seconds S --trace 0|1\n"
               "                 [--work-dir DIR] [--commit SHA] "
               "[--size full|tiny]\n",
               why);
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.threads = perfbench::default_threads();
  cfg.work_dir = ".bench_build/work";
  std::string commit = "unknown";
  bool trace = false;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    std::uint64_t u = 0;
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed" && parse_u64(v, u)) {
      cfg.seed = u;
      have_seed = true;
    } else if (a == "--seconds" && parse_u64(v, u) && u >= 1 && u <= 600) {
      cfg.seconds = static_cast<double>(u);
      have_seconds = true;
    } else if (a == "--trace" && (v == "0" || v == "1")) {
      trace = v == "1";
    } else if (a == "--work-dir") {
      cfg.work_dir = v;
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--size" && (v == "full" || v == "tiny")) {
      cfg.scale =
          v == "tiny" ? perfbench::Scale::tiny() : perfbench::Scale::full();
    } else {
      return usage(("bad argument " + a + " " + v).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds)
    return usage("--workload, --seed and --seconds are required");

  try {
    // A private scratch directory per process, removed afterwards.
    cfg.work_dir = (std::filesystem::path(cfg.work_dir) /
                    (cfg.workload + "-" + std::to_string(cfg.seed) + "-" +
                     std::to_string(static_cast<long>(::getpid()))))
                       .string();
    std::filesystem::create_directories(cfg.work_dir);
    const perfbench::Outcome out = perfbench::run_workload(cfg, trace);
    std::filesystem::remove_all(cfg.work_dir);
    std::printf("# host %s\n",
                perfbench::host_fingerprint_json(cfg.threads, commit).c_str());
    std::printf("%s\n", perfbench::result_json(out).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::error_code ec;
    std::filesystem::remove_all(cfg.work_dir, ec);
    return 1;
  }
}
