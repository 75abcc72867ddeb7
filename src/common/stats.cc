#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace triad {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double mean = Mean(v);
  double ss = 0.0;
  for (double x : v) ss += (x - mean) * (x - mean);
  return std::sqrt(ss / static_cast<double>(v.size()));
}

double Min(const std::vector<double>& v) {
  TRIAD_CHECK(!v.empty());
  return *std::min_element(v.begin(), v.end());
}

double Max(const std::vector<double>& v) {
  TRIAD_CHECK(!v.empty());
  return *std::max_element(v.begin(), v.end());
}

double Quantile(std::vector<double> v, double q) {
  // Both arguments are reachable from user config (ThresholdRule::kQuantile
  // with a user-supplied threshold_quantile, over a possibly empty vote
  // set), so bad input gets a guarded fallback instead of a TRIAD_CHECK
  // crash: empty → 0, q clamped into [0, 1] (NaN → 0).
  if (v.empty()) return 0.0;
  if (!(q >= 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

int64_t ArgMax(const std::vector<double>& v) {
  TRIAD_CHECK(!v.empty());
  return static_cast<int64_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

int64_t ArgMin(const std::vector<double>& v) {
  TRIAD_CHECK(!v.empty());
  return static_cast<int64_t>(
      std::min_element(v.begin(), v.end()) - v.begin());
}

}  // namespace triad
