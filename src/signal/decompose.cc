#include "signal/decompose.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "signal/fft.h"
#include "signal/spectral.h"

namespace triad::signal {

std::vector<double> Autocorrelation(const std::vector<double>& x,
                                    int64_t max_lag) {
  const int64_t n = static_cast<int64_t>(x.size());
  TRIAD_CHECK_GE(n, 2);
  max_lag = std::min(max_lag, n - 1);

  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(n);

  // Zero-padded FFT autocorrelation: ACF = IFFT(|FFT(x - mean)|^2).
  const size_t m = NextPowerOfTwo(static_cast<size_t>(2 * n));
  std::vector<Complex> buf(m, Complex(0, 0));
  for (int64_t i = 0; i < n; ++i) buf[static_cast<size_t>(i)] = x[i] - mean;
  std::vector<Complex> spec = Fft(buf);
  for (auto& c : spec) c = Complex(std::norm(c), 0.0);
  std::vector<Complex> acov = InverseFft(spec);

  std::vector<double> out(static_cast<size_t>(max_lag) + 1);
  const double denom = std::max(acov[0].real(), 1e-12);
  for (int64_t lag = 0; lag <= max_lag; ++lag) {
    out[static_cast<size_t>(lag)] = acov[static_cast<size_t>(lag)].real() / denom;
  }
  return out;
}

int64_t EstimatePeriod(const std::vector<double>& x, int64_t min_period,
                       int64_t max_period) {
  const int64_t n = static_cast<int64_t>(x.size());
  TRIAD_CHECK_GE(n, 8);
  if (max_period < 0) max_period = n / 3;
  max_period = std::min(max_period, n - 1);
  min_period = std::max<int64_t>(min_period, 2);
  if (min_period >= max_period) return min_period;

  // Spectral candidate: period = N / dominant bin.
  const size_t k = DominantFrequencyBin(x);
  int64_t candidate = static_cast<int64_t>(
      std::llround(static_cast<double>(n) / static_cast<double>(k)));
  candidate = std::clamp(candidate, min_period, max_period);

  // ACF refinement around the candidate (±30%) plus harmonic checks.
  const std::vector<double> acf = Autocorrelation(x, max_period);
  auto acf_peak_near = [&](int64_t center) -> int64_t {
    const int64_t radius =
        std::max<int64_t>(2, static_cast<int64_t>(0.3 * center));
    const int64_t lo = std::max(min_period, center - radius);
    const int64_t hi = std::min(max_period, center + radius);
    int64_t best = center;
    double best_v = -2.0;
    for (int64_t lag = lo; lag <= hi; ++lag) {
      if (acf[static_cast<size_t>(lag)] > best_v) {
        best_v = acf[static_cast<size_t>(lag)];
        best = lag;
      }
    }
    return best;
  };

  int64_t best_period = acf_peak_near(candidate);
  double best_score = acf[static_cast<size_t>(best_period)];
  // The true period is sometimes a small multiple of the spectral candidate
  // (sub-harmonic leakage); prefer it when its ACF is clearly stronger.
  for (int64_t mult = 2; mult <= 4; ++mult) {
    const int64_t harmonic = candidate * mult;
    if (harmonic > max_period) break;
    const int64_t refined = acf_peak_near(harmonic);
    const double v = acf[static_cast<size_t>(refined)];
    if (v > best_score + 0.05) {
      best_score = v;
      best_period = refined;
    }
  }
  return best_period;
}

std::vector<double> MovingAverage(const std::vector<double>& x,
                                  int64_t window) {
  const int64_t n = static_cast<int64_t>(x.size());
  TRIAD_CHECK_GE(window, 1);
  std::vector<double> out(static_cast<size_t>(n));
  const int64_t half = window / 2;
  // Prefix sums for O(n) averaging; edges shrink the window.
  std::vector<double> prefix(static_cast<size_t>(n) + 1, 0.0);
  for (int64_t i = 0; i < n; ++i) prefix[static_cast<size_t>(i) + 1] =
      prefix[static_cast<size_t>(i)] + x[static_cast<size_t>(i)];
  for (int64_t i = 0; i < n; ++i) {
    const int64_t lo = std::max<int64_t>(0, i - half);
    const int64_t hi = std::min(n - 1, i + half);
    out[static_cast<size_t>(i)] =
        (prefix[static_cast<size_t>(hi) + 1] - prefix[static_cast<size_t>(lo)]) /
        static_cast<double>(hi - lo + 1);
  }
  return out;
}

Decomposition DecomposeWithPeriod(const std::vector<double>& x,
                                  int64_t period) {
  const int64_t n = static_cast<int64_t>(x.size());
  TRIAD_CHECK_GE(period, 1);
  TRIAD_CHECK_GE(n, period);
  Decomposition d;
  d.period = period;
  d.trend = MovingAverage(x, period);

  // Per-phase means of the detrended series.
  std::vector<double> phase_sum(static_cast<size_t>(period), 0.0);
  std::vector<int64_t> phase_count(static_cast<size_t>(period), 0);
  for (int64_t i = 0; i < n; ++i) {
    const auto p = static_cast<size_t>(i % period);
    phase_sum[p] += x[static_cast<size_t>(i)] - d.trend[static_cast<size_t>(i)];
    ++phase_count[p];
  }
  double grand = 0.0;
  for (int64_t p = 0; p < period; ++p) {
    phase_sum[static_cast<size_t>(p)] /=
        std::max<int64_t>(1, phase_count[static_cast<size_t>(p)]);
    grand += phase_sum[static_cast<size_t>(p)];
  }
  grand /= static_cast<double>(period);
  for (auto& v : phase_sum) v -= grand;  // zero-mean seasonal

  d.seasonal.resize(static_cast<size_t>(n));
  d.residual.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    d.seasonal[static_cast<size_t>(i)] = phase_sum[static_cast<size_t>(i % period)];
    d.residual[static_cast<size_t>(i)] = x[static_cast<size_t>(i)] -
                                         d.trend[static_cast<size_t>(i)] -
                                         d.seasonal[static_cast<size_t>(i)];
  }
  return d;
}

std::vector<double> ResidualComponent(const std::vector<double>& x,
                                      int64_t period) {
  return DecomposeWithPeriod(x, period).residual;
}

}  // namespace triad::signal
