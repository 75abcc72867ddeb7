#ifndef TRIAD_DISCORD_MASS_H_
#define TRIAD_DISCORD_MASS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "signal/fft.h"

namespace triad::discord {

/// \brief Rolling means and standard deviations of all length-m subsequences,
/// computed in O(n) with prefix sums. Used by MASS and the discord
/// algorithms' z-normalized distances.
struct RollingStats {
  std::vector<double> mean;
  std::vector<double> stddev;  ///< population stddev; 0 for flat windows
};

RollingStats ComputeRollingStats(const std::vector<double>& series,
                                 int64_t m);

/// Mean and population stddev of the length-m window at i, from prefix sums
/// of a series and of its squares (prefix[k] = sum of the first k values):
/// the arithmetic of ComputeRollingStats and MassContext::Stats, one window
/// at a time, for loops that keep their own buffers.
inline void WindowMoments(const double* prefix, const double* prefix_sq,
                          int64_t i, int64_t m, double* mean,
                          double* stddev) {
  const double sum = prefix[i + m] - prefix[i];
  const double sum_sq = prefix_sq[i + m] - prefix_sq[i];
  const double mu = sum / static_cast<double>(m);
  *mean = mu;
  *stddev =
      std::sqrt(std::max(0.0, sum_sq / static_cast<double>(m) - mu * mu));
}

/// \brief Amortization context for repeated MASS queries against one series
/// (see ARCHITECTURE.md §7).
///
/// Owns a copy of the series plus the two prefix-sum arrays from which the
/// rolling mean/stddev of *any* subsequence length is derived, and lazily
/// caches the forward FFT of the zero-padded series per padded size — so
/// within one subsequence length every query costs one forward FFT of the
/// query, a pointwise multiply, and one inverse transform, and across a
/// MERLIN length sweep the series-side transform is shared (lengths whose
/// padded power-of-two size coincides reuse the same spectrum).
///
/// **Bit-identity contract:** every accessor reproduces the exact
/// arithmetic of the one-shot functions — Stats(m) equals
/// ComputeRollingStats(series, m), DistanceProfile(q) equals
/// MassDistanceProfile(series, q) — bit for bit. The cache stores results
/// of the same operations, never a reformulation.
///
/// Thread-safety: const methods are safe to call concurrently from pool
/// workers (the spectrum cache takes an internal mutex on first touch per
/// padded size; per-call scratch is thread-local). Cache effectiveness is
/// exported as the `mass.spectrum_hits` / `mass.spectrum_misses` registry
/// counters.
class MassContext {
 public:
  /// Copies (or moves) the series in; the context is self-contained.
  explicit MassContext(std::vector<double> series);

  const std::vector<double>& series() const { return series_; }
  int64_t size() const { return static_cast<int64_t>(series_.size()); }

  /// Rolling stats for length m, derived from the shared prefix sums.
  RollingStats Stats(int64_t m) const;

  /// The prefix sums of the series and of its squares (n+1 entries each)
  /// that Stats(m) derives from; WindowMoments over them is Stats(m)
  /// window by window.
  const double* prefix() const { return prefix_.data(); }
  const double* prefix_sq() const { return prefix_sq_.data(); }

  /// Sliding dot products dots[i] = sum_j series[i+j] * query[j] for
  /// i in [0, n-m]; `dots` must hold n-m+1 entries. One query-side FFT
  /// against the cached series spectrum.
  void SlidingDotsInto(const double* query, int64_t m, double* dots) const;

  /// MASS distance profile of `query` against every subsequence;
  /// bit-identical to MassDistanceProfile(series, query).
  std::vector<double> DistanceProfile(const std::vector<double>& query) const;

  /// Scratch-free variant for row loops: `stats` must come from Stats(m)
  /// (hoisted out of the loop by the caller), `out` must hold n-m+1
  /// entries, and `query` may point into any live buffer (including the
  /// context's own series).
  void DistanceProfileInto(const double* query, int64_t m,
                           const RollingStats& stats, double* out) const;

 private:
  /// The forward FFT of the series zero-padded to `padded` (a power of
  /// two), computed once per padded size and shared.
  std::shared_ptr<const std::vector<signal::Complex>> SpectrumFor(
      size_t padded) const;

  std::vector<double> series_;
  std::vector<double> prefix_;     ///< prefix sums, n+1 entries
  std::vector<double> prefix_sq_;  ///< prefix sums of squares, n+1 entries

  mutable std::mutex mu_;
  mutable std::unordered_map<size_t,
                             std::shared_ptr<const std::vector<signal::Complex>>>
      spectra_;
};

/// \brief Nearest-window index over one series at one window length — the
/// detector's selection stage (ARCHITECTURE.md §7).
///
/// Holds the series centred by its mean and 1/stddev of every length-m
/// window (NaN for flat windows, stddev < 1e-12), the stddevs derived from
/// prefix sums of the centred series. NearestDistance(q) is the minimum
/// over all windows of the z-normalized Euclidean distance to q — the
/// minimum of q's MASS distance profile — from one direct pass of
/// simd::SlidingCorrMax over the centred data instead of an FFT
/// convolution. Centring both sides is what keeps it accurate on offset
/// series: the centred query sums to ~0, so the correlation needs no
/// m·mean_q·mean_i subtraction, which is where MASS cancels
/// catastrophically once the offset dwarfs the signal.
///
/// Flat conventions follow simd::ZNormDistRow: a flat query is at 0 when
/// any window is flat and at +inf otherwise; a flat window never matches a
/// non-flat query; a query with no finite match is at +inf.
///
/// Immutable after construction, so NearestDistance is safe to call
/// concurrently. Each call counts one `mass.profiles`.
class NearestWindowIndex {
 public:
  NearestWindowIndex() = default;
  /// Indexes every length-m window of `series`; requires 1 <= m <= n.
  NearestWindowIndex(const std::vector<double>& series, int64_t m);

  /// Nearest-window z-normalized distance of `query` (m values).
  double NearestDistance(const std::vector<double>& query) const;

 private:
  int64_t m_ = 0;
  std::vector<double> centred_;  ///< series minus its mean
  std::vector<double> inv_sd_;   ///< 1/stddev per window; NaN when flat
  bool has_flat_ = false;
};

/// \brief MASS (Mueen's Algorithm for Similarity Search).
///
/// Returns the z-normalized Euclidean distance between `query` (length m)
/// and every length-m subsequence of `series`, in O(n log n) via one FFT
/// convolution. Flat windows (stddev 0) get distance +inf unless the query
/// is also flat (distance 0); +inf marks the pair as incomparable and every
/// downstream consumer (discord ranking, profile argmins) excludes it via
/// isfinite, so constant segments cannot masquerade as discords.
///
/// One-shot convenience over MassContext: callers issuing many queries
/// against the same series should hold a context instead so the series
/// spectrum and prefix sums are computed once.
std::vector<double> MassDistanceProfile(const std::vector<double>& series,
                                        const std::vector<double>& query);

/// Z-normalized Euclidean distance between two equal-length windows with
/// early abandoning: returns early with a value > `best_so_far` once the
/// partial sum exceeds it. Exact when the true distance <= best_so_far.
double ZNormDistanceEarlyAbandon(const double* a, double mean_a, double std_a,
                                 const double* b, double mean_b, double std_b,
                                 int64_t m, double best_so_far);

/// \brief Naive matrix profile (nearest non-trivial-match distance for every
/// subsequence), O(n^2 log n) via per-offset MASS. Reference implementation
/// for tests and the discord-algorithm comparison bench.
std::vector<double> MatrixProfileNaive(const std::vector<double>& series,
                                       int64_t m);

}  // namespace triad::discord

#endif  // TRIAD_DISCORD_MASS_H_
