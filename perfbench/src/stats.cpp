#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile p among n samples.
std::size_t rank_of(double p, std::size_t n) {
  const double r = std::ceil(p * static_cast<double>(n) - 1e-9);
  const auto k = static_cast<std::size_t>(r < 1.0 ? 1.0 : r);
  return k > n ? n : k;
}

}  // namespace

Percentile percentile(std::vector<double> xs, double p,
                      std::size_t min_beyond) {
  Percentile out;
  out.samples = xs.size();
  if (xs.empty()) return out;
  const std::size_t k = rank_of(p, xs.size());
  std::nth_element(xs.begin(), xs.begin() + static_cast<long>(k - 1),
                   xs.end());
  out.value = xs[k - 1];
  out.beyond = xs.size() - k;
  out.valid = out.beyond >= min_beyond;
  return out;
}

std::size_t samples_needed(double p, std::size_t min_beyond) {
  std::size_t n = min_beyond + 1;
  while (n - rank_of(p, n) < min_beyond) ++n;
  return n;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

}  // namespace perfbench
