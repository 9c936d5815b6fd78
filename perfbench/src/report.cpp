// Outcome bookkeeping, the result line, and workload dispatch.
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

void Outcome::add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    broken(name + " is not finite");
    value = 0.0;
  }
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Outcome::fail(std::uint64_t count, const std::string& why) {
  failed += count;
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED (%llu op%s): %s\n",
               static_cast<unsigned long long>(count), count == 1 ? "" : "s",
               why.c_str());
}

void Outcome::broken(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

Scale Scale::tiny() {
  Scale s;
  s.section5_nets = 12;
  s.testbenches = 1;
  s.chains = 4;
  s.chain_sites = 48;
  s.serve_nets = 4;
  s.burst = 3;
  s.interactive_phase = 8;
  s.setup_repeats = 1;
  s.eco_checks = 12;
  s.traced_requests = 40;
  s.untraced_repeats = 1;
  return s;
}

std::string result_json(const Outcome& o) {
  // Hand-rolled so every value keeps all 17 significant digits.
  std::string out = "{\"correct\": ";
  out += o.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(o.attempted);
  out += ", \"failed\": " + std::to_string(o.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

Outcome run_workload(const RunConfig& cfg, bool trace) {
  if (cfg.workload == "section5")
    return trace ? trace_section5(cfg) : run_section5(cfg);
  if (cfg.workload == "chain512")
    return trace ? trace_chain512(cfg) : run_chain512(cfg);
  if (cfg.workload == "serve_eco")
    return trace ? trace_serve_eco(cfg) : run_serve_eco(cfg);
  throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

}  // namespace perfbench
