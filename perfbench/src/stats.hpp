// Sample statistics of the benchmark.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the smallest sample with at least p of the
// samples at or below it. A tail percentile is only reported when at least
// `min_beyond` samples lie above its rank (the "ten samples beyond" rule),
// so p99 needs >= 1000 samples.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples ranked above the percentile
  bool valid = false;      // beyond >= min_beyond
};

[[nodiscard]] Percentile percentile(std::vector<double> xs, double p,
                                    std::size_t min_beyond = 10);

// Samples needed before percentile(p) can be valid.
[[nodiscard]] std::size_t samples_needed(double p, std::size_t min_beyond = 10);

[[nodiscard]] double median(std::vector<double> xs);

}  // namespace perfbench
