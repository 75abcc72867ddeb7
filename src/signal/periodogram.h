#ifndef TRIAD_SIGNAL_PERIODOGRAM_H_
#define TRIAD_SIGNAL_PERIODOGRAM_H_

#include <cstdint>
#include <vector>

namespace triad::signal {

/// \brief Welch power spectral density estimate: the series is split into
/// Hann-windowed, 50%-overlapping segments whose periodograms are averaged.
/// Returns power at segment_length/2 + 1 one-sided frequency bins.
///
/// Used as a noise-robust alternative to the raw DFT when estimating the
/// dominant periodicity of long training series.
std::vector<double> WelchPeriodogram(const std::vector<double>& x,
                                     int64_t segment_length);

/// \brief Normalized spectral entropy in [0, 1]: 0 for a pure tone, 1 for
/// white noise. A cheap signal-quality diagnostic for deciding whether a
/// series is periodic enough for TriAD's segmentation.
double SpectralEntropy(const std::vector<double>& x);

/// Period estimate from the Welch PSD peak (segment = min(n, 4 * max
/// expected period)); more robust to broadband noise than the plain DFT.
int64_t EstimatePeriodWelch(const std::vector<double>& x,
                            int64_t min_period = 2, int64_t max_period = -1);

/// \brief How much the data supports `period` as the periodicity of `x`.
///
/// The normalized autocorrelation of the series at lag `period`, clamped to
/// [0, 1]: near 1 for a truly periodic series, near 0 for white noise,
/// constants, or any input too short/degenerate to estimate from. The
/// detector's graceful-degradation ladder (ARCHITECTURE.md §5) falls back
/// to a configured default period when the confidence is below
/// TriadConfig::min_period_confidence instead of segmenting on a nonsense
/// estimate. Never crashes: degenerate inputs (period < 2, series shorter
/// than two cycles, zero-variance series, non-finite ACF) return 0.
double PeriodAcfConfidence(const std::vector<double>& x, int64_t period);

}  // namespace triad::signal

#endif  // TRIAD_SIGNAL_PERIODOGRAM_H_
