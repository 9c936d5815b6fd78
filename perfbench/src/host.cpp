// Host fingerprint and process-level measurements.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "core/vanginneken.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

// First "model name" line of /proc/cpuinfo and the widest vector ISA its
// flags advertise.
void cpu_info(std::string& model, std::string& isa) {
  model = "unknown";
  isa = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  bool have_model = false;
  bool have_flags = false;
  while (std::getline(in, line) && !(have_model && have_flags)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : std::string{};
    if (!have_model && key == "model name") {
      model = value;
      have_model = true;
    } else if (!have_flags && key == "flags") {
      std::istringstream words(value);
      std::string w;
      bool sse2 = false, avx2 = false, avx512f = false;
      while (words >> w) {
        sse2 = sse2 || w == "sse2";
        avx2 = avx2 || w == "avx2";
        avx512f = avx512f || w == "avx512f";
      }
      isa = avx512f ? "avx512f" : avx2 ? "avx2" : sse2 ? "sse2" : "none";
      have_flags = true;
    }
  }
}

}  // namespace

std::size_t default_threads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<std::size_t>(std::clamp(n, 1L, 4L));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string host_fingerprint_json(std::size_t threads,
                                  const std::string& commit) {
  std::string model, isa;
  cpu_info(model, isa);
  nbuf::util::JsonWriter j;
  j.begin_object();
  j.field("nproc", static_cast<std::size_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.field("threads", threads);
  j.field("cpu", std::string_view(model));
  j.field("vector_isa", std::string_view(isa));
  j.field("compiler", std::string_view(PERFBENCH_COMPILER));
  j.field("build_type", std::string_view(PERFBENCH_BUILD_TYPE));
  j.field("simd_compiled", nbuf::core::simd_compiled());
  j.field("commit", std::string_view(commit));
  j.end_object();
  return j.str();
}

}  // namespace perfbench
