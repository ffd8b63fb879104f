#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

Tail TailPercentile(std::vector<double> samples, size_t beyond) {
  Tail t;
  t.samples = samples.size();
  t.beyond = beyond;
  if (samples.size() <= beyond) return t;
  std::sort(samples.begin(), samples.end());
  const size_t index = samples.size() - 1 - beyond;
  t.ok = true;
  t.value = samples[index];
  t.percentile = samples.size() == 1
                     ? 100.0
                     : 100.0 * static_cast<double>(index) /
                           static_cast<double>(samples.size() - 1);
  return t;
}

}  // namespace perfbench
