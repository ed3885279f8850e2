#include "harness/stats.hpp"

#include <algorithm>

namespace ssq::harness {

summary summarize(std::vector<double> samples) {
  summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.q1 = percentile(samples, 0.25); // sorts
  s.median = percentile(samples, 0.5);
  s.q3 = percentile(samples, 0.75);
  s.min = samples.front();
  s.max = samples.back();
  return s;
}

double percentile(std::vector<double> &samples, double q) {
  if (samples.empty()) return 0;
  if (q <= 0) q = 0;
  if (q >= 1) q = 1;
  std::sort(samples.begin(), samples.end());
  double rank = q * static_cast<double>(samples.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  auto hi = lo + 1 < samples.size() ? lo + 1 : lo;
  double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

} // namespace ssq::harness
