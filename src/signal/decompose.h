#ifndef TRIAD_SIGNAL_DECOMPOSE_H_
#define TRIAD_SIGNAL_DECOMPOSE_H_

#include <cstdint>
#include <vector>

namespace triad::signal {

/// \brief Additive decomposition X = trend + seasonal + residual
/// (paper Eq. 1's structural model).
struct Decomposition {
  std::vector<double> trend;
  std::vector<double> seasonal;
  std::vector<double> residual;
  int64_t period = 0;
};

/// \brief Estimates the dominant period (in samples) of a periodic series.
///
/// Combines the dominant FFT bin with an autocorrelation refinement: the ACF
/// is scanned around the spectral candidate for a local maximum, which is
/// robust when the spectral peak leaks across bins. Returns a period in
/// [min_period, max_period]; falls back to the spectral candidate if the ACF
/// has no usable peak.
int64_t EstimatePeriod(const std::vector<double>& x, int64_t min_period = 2,
                       int64_t max_period = -1);

/// Autocorrelation function for lags [0, max_lag], computed via FFT.
std::vector<double> Autocorrelation(const std::vector<double>& x,
                                    int64_t max_lag);

/// Centered moving average with edge shrinking (window = period).
std::vector<double> MovingAverage(const std::vector<double>& x,
                                  int64_t window);

/// \brief Classical seasonal decomposition given a known period:
/// trend = centered moving average; seasonal = per-phase mean of the
/// detrended series (zero-mean across phases); residual = remainder.
Decomposition DecomposeWithPeriod(const std::vector<double>& x,
                                  int64_t period);

/// The residual channel TriAD feeds its third encoder:
/// x minus its periodic (trend + seasonal) structure.
std::vector<double> ResidualComponent(const std::vector<double>& x,
                                      int64_t period);

}  // namespace triad::signal

#endif  // TRIAD_SIGNAL_DECOMPOSE_H_
