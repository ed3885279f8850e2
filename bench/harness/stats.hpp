// Summary statistics for benchmark samples.
#pragma once

#include <cstddef>
#include <vector>

namespace ssq::harness {

struct summary {
  double median = 0;
  double q1 = 0; // first quartile
  double q3 = 0; // third quartile
  double min = 0;
  double max = 0;
  std::size_t n = 0;
};

summary summarize(std::vector<double> samples);

// Percentile by linear interpolation between closest ranks; q in [0, 1].
// Sorts its input.
double percentile(std::vector<double> &samples, double q);

} // namespace ssq::harness
