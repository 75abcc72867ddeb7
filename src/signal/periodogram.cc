#include "signal/periodogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "signal/decompose.h"
#include "signal/fft.h"

namespace triad::signal {
namespace {

constexpr double kPi = 3.14159265358979323846;

std::vector<double> HannWindow(int64_t n) {
  std::vector<double> w(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    w[static_cast<size_t>(i)] =
        0.5 * (1.0 - std::cos(2.0 * kPi * static_cast<double>(i) /
                              static_cast<double>(n - 1)));
  }
  return w;
}

}  // namespace

std::vector<double> WelchPeriodogram(const std::vector<double>& x,
                                     int64_t segment_length) {
  const int64_t n = static_cast<int64_t>(x.size());
  TRIAD_CHECK_GE(segment_length, 8);
  TRIAD_CHECK_GE(n, segment_length);
  const int64_t hop = segment_length / 2;
  const std::vector<double> hann = HannWindow(segment_length);

  const int64_t bins = segment_length / 2 + 1;
  std::vector<double> psd(static_cast<size_t>(bins), 0.0);
  int64_t segments = 0;
  for (int64_t start = 0; start + segment_length <= n; start += hop) {
    // Detrend (remove the segment mean) and taper.
    double mean = 0.0;
    for (int64_t i = 0; i < segment_length; ++i) {
      mean += x[static_cast<size_t>(start + i)];
    }
    mean /= static_cast<double>(segment_length);
    std::vector<double> seg(static_cast<size_t>(segment_length));
    for (int64_t i = 0; i < segment_length; ++i) {
      seg[static_cast<size_t>(i)] =
          (x[static_cast<size_t>(start + i)] - mean) *
          hann[static_cast<size_t>(i)];
    }
    const std::vector<Complex> spec = RealFft(seg);
    for (int64_t k = 0; k < bins; ++k) {
      psd[static_cast<size_t>(k)] += std::norm(spec[static_cast<size_t>(k)]);
    }
    ++segments;
  }
  TRIAD_CHECK_GE(segments, 1);
  for (auto& v : psd) v /= static_cast<double>(segments);
  return psd;
}

double SpectralEntropy(const std::vector<double>& x) {
  TRIAD_CHECK_GE(x.size(), 16u);
  const int64_t segment =
      std::min<int64_t>(static_cast<int64_t>(x.size()),
                        static_cast<int64_t>(
                            NextPowerOfTwo(x.size() / 2)));
  const std::vector<double> psd =
      WelchPeriodogram(x, std::max<int64_t>(16, segment));
  // Exclude the DC bin, normalize to a distribution.
  double total = 0.0;
  for (size_t k = 1; k < psd.size(); ++k) total += psd[k];
  if (total < 1e-300) return 0.0;
  double entropy = 0.0;
  for (size_t k = 1; k < psd.size(); ++k) {
    const double p = psd[k] / total;
    if (p > 1e-300) entropy -= p * std::log(p);
  }
  const double max_entropy = std::log(static_cast<double>(psd.size() - 1));
  return max_entropy < 1e-300 ? 0.0 : entropy / max_entropy;
}

int64_t EstimatePeriodWelch(const std::vector<double>& x, int64_t min_period,
                            int64_t max_period) {
  const int64_t n = static_cast<int64_t>(x.size());
  TRIAD_CHECK_GE(n, 32);
  if (max_period < 0) max_period = n / 3;
  max_period = std::min(max_period, n / 2);
  min_period = std::max<int64_t>(min_period, 2);

  // Segment long enough to resolve max_period with a few cycles.
  const int64_t segment = std::min(
      n, static_cast<int64_t>(NextPowerOfTwo(
             static_cast<size_t>(std::max<int64_t>(64, 4 * max_period)))));
  const std::vector<double> psd = WelchPeriodogram(x, segment);

  int64_t best_bin = 1;
  double best_power = -1.0;
  for (size_t k = 1; k < psd.size(); ++k) {
    const double period = static_cast<double>(segment) / static_cast<double>(k);
    if (period < static_cast<double>(min_period) ||
        period > static_cast<double>(max_period)) {
      continue;
    }
    if (psd[k] > best_power) {
      best_power = psd[k];
      best_bin = static_cast<int64_t>(k);
    }
  }
  return std::clamp<int64_t>(
      static_cast<int64_t>(std::llround(static_cast<double>(segment) /
                                        static_cast<double>(best_bin))),
      min_period, max_period);
}

double PeriodAcfConfidence(const std::vector<double>& x, int64_t period) {
  const int64_t n = static_cast<int64_t>(x.size());
  if (period < 2 || n < 2 * period) return 0.0;
  const std::vector<double> acf = Autocorrelation(x, period);
  const double value = acf[static_cast<size_t>(period)];
  if (!std::isfinite(value)) return 0.0;
  return std::clamp(value, 0.0, 1.0);
}

}  // namespace triad::signal
