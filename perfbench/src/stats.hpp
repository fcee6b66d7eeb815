// Order statistics of the benchmark's samples.
#pragma once

#include <utility>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `samples` by linear interpolation
/// between closest ranks: position q * (n - 1) of the sorted samples, as
/// numpy's default and Python's statistics.quantiles(method="inclusive").
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

}  // namespace perfbench
