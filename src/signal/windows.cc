#include "signal/windows.h"

#include <cmath>

#include "common/check.h"

namespace triad::signal {

std::vector<int64_t> SlidingWindowStarts(int64_t n, int64_t length,
                                         int64_t stride) {
  TRIAD_CHECK_GE(length, 1);
  TRIAD_CHECK_GE(stride, 1);
  std::vector<int64_t> starts;
  if (n < length) return starts;
  for (int64_t s = 0; s + length <= n; s += stride) starts.push_back(s);
  if (starts.empty() || starts.back() + length < n) {
    starts.push_back(n - length);  // tail coverage
  }
  return starts;
}

std::vector<double> ExtractWindow(const std::vector<double>& x, int64_t start,
                                  int64_t length) {
  TRIAD_CHECK(start >= 0 && length >= 0 &&
              start + length <= static_cast<int64_t>(x.size()));
  return std::vector<double>(x.begin() + start, x.begin() + start + length);
}

void ZNormalizeInPlace(std::vector<double>* x, double eps) {
  if (x->empty()) return;
  double mean = 0.0;
  for (double v : *x) mean += v;
  mean /= static_cast<double>(x->size());
  double ss = 0.0;
  for (double v : *x) ss += (v - mean) * (v - mean);
  const double sd = std::sqrt(ss / static_cast<double>(x->size()));
  if (sd < eps) {
    for (auto& v : *x) v = 0.0;
    return;
  }
  for (auto& v : *x) v = (v - mean) / sd;
}

std::vector<double> ZNormalized(const std::vector<double>& x, double eps) {
  std::vector<double> out = x;
  ZNormalizeInPlace(&out, eps);
  return out;
}

double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  TRIAD_CHECK_EQ(a.size(), b.size());
  double ss = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    ss += d * d;
  }
  return std::sqrt(ss);
}

}  // namespace triad::signal
