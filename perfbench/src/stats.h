#pragma once

/// \file stats.h
/// Exact order statistics over raw samples. No buckets: every reported
/// percentile is a value interpolated between two measured samples, so
/// repeated runs do not snap to histogram bucket edges.

#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// Percentile `p` in [0, 100] with linear interpolation between closest
/// ranks (rank = p/100 * (n-1)); the median of an even count is the mean of
/// the two middle samples. 0 for an empty input.
double Percentile(std::vector<double> samples, double p);

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double Mean(const std::vector<double>& samples);

/// The highest percentile that still has `beyond` samples above it, and its
/// value: with n sorted samples that is the sample at index n-1-beyond,
/// reported as percentile 100*(n-1-beyond)/(n-1). `ok` is false when there
/// are not enough samples (n <= beyond).
struct Tail {
  bool ok = false;
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailPercentile(std::vector<double> samples, size_t beyond = 10);

}  // namespace perfbench
