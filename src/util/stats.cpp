#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace nbuf::util {

std::string format(const VgStats& s) {
  std::string out;
  for (const VgStatsField& f : kVgStatsFields) {
    if (!out.empty()) out += ", ";
    out += f.name;
    out += ' ';
    out += std::to_string(s.*f.member);
  }
  return out;
}

Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.min = xs.front();
  s.max = xs.front();
  double sum = 0.0;
  for (double x : xs) {
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
    sum += x;
  }
  s.mean = sum / static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - s.mean) * (x - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(xs.size()));
  return s;
}

double percentile(std::vector<double> xs, double p) {
  NBUF_EXPECTS(!xs.empty());
  NBUF_EXPECTS(p >= 0.0 && p <= 1.0);
  std::sort(xs.begin(), xs.end());  // nbuf-lint: allow(sort)
  const double pos = p * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

std::map<int, std::size_t> histogram(const std::vector<int>& xs) {
  std::map<int, std::size_t> h;
  for (int x : xs) ++h[x];
  return h;
}

}  // namespace nbuf::util
