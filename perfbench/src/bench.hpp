// perfbench: shared types of the nbuf benchmark (README.md).
//
// A run is one workload at one seed. The untimed setup builds the inputs
// from the seed, the timed loop drives nbuf through its public entry
// points with tracing off, and the oracles check every output afterwards.
// A traced run (--trace 1) instead calls the layers one after another and
// reports per-layer numbers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports: the operation ledger and the metrics.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;  // nets or requests
  std::uint64_t failed = 0;     // threw, Error frame, or oracle mismatch
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  // Records `count` failed operations and why (printed to stderr).
  void fail(std::uint64_t count, const std::string& why);
  // A mismatch that is not tied to one operation (a whole-run check).
  void broken(const std::string& why);
};

// Input sizes. full() is what the benchmark measures; tiny() is the
// minimal configuration the self-tests run.
struct Scale {
  std::size_t section5_nets = 500;      // nets per testbench draw
  std::size_t testbenches = 4;          // section5 draws per run
  std::size_t chains = 24;
  std::size_t chain_sites = 512;
  std::size_t serve_nets = 24;
  std::size_t burst = 16;               // PERTURBs per what-if burst
  std::size_t interactive_phase = 48;   // closed-loop requests between bursts
  std::size_t min_latency_samples = 1000;  // p99 needs >= 10 beyond it
  std::size_t setup_repeats = 5;        // setup_s is their median
  std::size_t eco_checks = 160;         // PERTURB/SIGNOFF cold-twin samples
  std::size_t traced_requests = 1000;   // interactive requests, traced run
  std::size_t untraced_repeats = 3;     // reference passes in a traced run

  [[nodiscard]] static Scale full() { return {}; }
  [[nodiscard]] static Scale tiny();
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  std::size_t threads = 1;  // P = min(4, nproc)
  std::string work_dir;     // scratch space for the .net files
  Scale scale;

  // The timed loop stops once `seconds` passed and `min_latency_samples`
  // were taken, or at the hard cap (a slow host still exits in time).
  [[nodiscard]] double hard_cap_seconds() const {
    return seconds * 4.0 < 120.0 ? seconds * 4.0 : 120.0;
  }
};

[[nodiscard]] std::size_t default_threads();

// Workloads. run_* is the timed run, trace_* the traced run.
[[nodiscard]] Outcome run_section5(const RunConfig& cfg);
[[nodiscard]] Outcome run_chain512(const RunConfig& cfg);
[[nodiscard]] Outcome run_serve_eco(const RunConfig& cfg);
[[nodiscard]] Outcome trace_section5(const RunConfig& cfg);
[[nodiscard]] Outcome trace_chain512(const RunConfig& cfg);
[[nodiscard]] Outcome trace_serve_eco(const RunConfig& cfg);

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"section5", "chain512",
                                                 "serve_eco"};
  return names;
}

// Dispatches on cfg.workload; throws std::invalid_argument when unknown.
[[nodiscard]] Outcome run_workload(const RunConfig& cfg, bool trace);

// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

// Host fingerprint as a one-line JSON object.
[[nodiscard]] std::string host_fingerprint_json(std::size_t threads,
                                                const std::string& commit);

// The result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(const Outcome& o);

}  // namespace perfbench
