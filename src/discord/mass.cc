#include "discord/mass.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "signal/fft.h"
#include "signal/fft_plan.h"
#include "signal/windows.h"

namespace triad::discord {
namespace {

using signal::Complex;

// Builds the prefix sums ComputeRollingStats and MassContext share.
void BuildPrefixSums(const std::vector<double>& series,
                     std::vector<double>* prefix,
                     std::vector<double>* prefix_sq) {
  const int64_t n = static_cast<int64_t>(series.size());
  prefix->assign(static_cast<size_t>(n) + 1, 0.0);
  prefix_sq->assign(static_cast<size_t>(n) + 1, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    (*prefix)[static_cast<size_t>(i) + 1] =
        (*prefix)[static_cast<size_t>(i)] + series[static_cast<size_t>(i)];
    (*prefix_sq)[static_cast<size_t>(i) + 1] =
        (*prefix_sq)[static_cast<size_t>(i)] +
        series[static_cast<size_t>(i)] * series[static_cast<size_t>(i)];
  }
}

// Derives length-m rolling stats from the prefix sums with WindowMoments,
// the single place this arithmetic lives, so the one-shot and amortized
// paths (and ExactDiscords' per-length set-up) cannot drift.
RollingStats DeriveStats(const std::vector<double>& prefix,
                         const std::vector<double>& prefix_sq, int64_t n,
                         int64_t m) {
  TRIAD_CHECK(m >= 1 && m <= n);
  const int64_t count = n - m + 1;
  RollingStats out;
  out.mean.resize(static_cast<size_t>(count));
  out.stddev.resize(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    WindowMoments(prefix.data(), prefix_sq.data(), i, m,
                  &out.mean[static_cast<size_t>(i)],
                  &out.stddev[static_cast<size_t>(i)]);
  }
  return out;
}

}  // namespace

RollingStats ComputeRollingStats(const std::vector<double>& series,
                                 int64_t m) {
  const int64_t n = static_cast<int64_t>(series.size());
  TRIAD_CHECK(m >= 1 && m <= n);
  std::vector<double> prefix;
  std::vector<double> prefix_sq;
  BuildPrefixSums(series, &prefix, &prefix_sq);
  return DeriveStats(prefix, prefix_sq, n, m);
}

namespace {

// Spectrum-cache effectiveness counters, shared by every context. Deliberate
// *eager* registration from the MassContext constructor (not lazily on first
// SpectrumFor): registered names are what exporters snapshot, so
// `ucr_runner --metrics-json` and the streaming bench report the pair —
// zero-valued if no query ran yet — instead of silently omitting it when a
// run never touched the spectrum cache.
struct SpectrumCounters {
  metrics::Counter* hits =
      metrics::Registry::Global().counter("mass.spectrum_hits");
  metrics::Counter* misses =
      metrics::Registry::Global().counter("mass.spectrum_misses");
};

SpectrumCounters& SpectrumInstruments() {
  static SpectrumCounters c;
  return c;
}

}  // namespace

MassContext::MassContext(std::vector<double> series)
    : series_(std::move(series)) {
  SpectrumInstruments();  // register mass.spectrum_* for exporters
  BuildPrefixSums(series_, &prefix_, &prefix_sq_);
}

RollingStats MassContext::Stats(int64_t m) const {
  return DeriveStats(prefix_, prefix_sq_, size(), m);
}

std::shared_ptr<const std::vector<Complex>> MassContext::SpectrumFor(
    size_t padded) const {
  metrics::Counter* hits_counter = SpectrumInstruments().hits;
  metrics::Counter* misses_counter = SpectrumInstruments().misses;

  std::lock_guard<std::mutex> lock(mu_);
  auto it = spectra_.find(padded);
  if (it != spectra_.end()) {
    hits_counter->Increment();
    return it->second;
  }
  misses_counter->Increment();
  // Identical construction to the series side of the reference FFT
  // convolution in tests/fft_plan_test.cc: zero-pad, forward transform.
  // Built under the lock so concurrent first touches of one padded size
  // never duplicate the work.
  auto spec = std::make_shared<std::vector<Complex>>(padded, Complex(0, 0));
  for (size_t i = 0; i < series_.size(); ++i) {
    (*spec)[i] = Complex(series_[i], 0);
  }
  signal::GetFftPlan(padded)->Forward(spec.get());
  spectra_[padded] = spec;
  return spec;
}

void MassContext::SlidingDotsInto(const double* query, int64_t m,
                                  double* dots) const {
  const int64_t n = size();
  TRIAD_CHECK(m >= 1 && m <= n);
  const int64_t count = n - m + 1;

  const size_t padded = signal::NextPowerOfTwo(series_.size() +
                                               static_cast<size_t>(m) - 1);
  const std::shared_ptr<const signal::FftPlan> plan =
      signal::GetFftPlan(padded);
  const std::shared_ptr<const std::vector<Complex>> series_spec =
      SpectrumFor(padded);

  // Per-worker scratch (concurrent MASS scans share the context).
  thread_local std::vector<Complex> fb;
  fb.assign(padded, Complex(0, 0));
  for (int64_t j = 0; j < m; ++j) {
    fb[static_cast<size_t>(j)] = Complex(query[m - 1 - j], 0);
  }
  plan->Forward(&fb);
  // Same operand order as the reference convolution (series spectrum on
  // the left), so the products are bit-identical.
  for (size_t i = 0; i < padded; ++i) fb[i] = (*series_spec)[i] * fb[i];
  plan->InverseUnnormalized(&fb);
  const double inv = 1.0 / static_cast<double>(padded);
  for (int64_t i = 0; i < count; ++i) {
    dots[i] = fb[static_cast<size_t>(m - 1 + i)].real() * inv;
  }
}

void MassContext::DistanceProfileInto(const double* query, int64_t m,
                                      const RollingStats& stats,
                                      double* out) const {
  const int64_t n = size();
  TRIAD_CHECK(m >= 1 && m <= n);
  const int64_t count = n - m + 1;
  TRIAD_CHECK(static_cast<int64_t>(stats.mean.size()) == count);
  // MASS profiles run from pool workers (selection stage, Orchard index
  // build); Counter increments are exact under concurrency.
  static metrics::Counter* profiles_counter =
      metrics::Registry::Global().counter("mass.profiles");
  profiles_counter->Increment();

  double q_mean = 0.0;
  for (int64_t j = 0; j < m; ++j) q_mean += query[j];
  q_mean /= static_cast<double>(m);
  double q_ss = 0.0;
  for (int64_t j = 0; j < m; ++j) {
    q_ss += (query[j] - q_mean) * (query[j] - q_mean);
  }
  const double q_std = std::sqrt(q_ss / static_cast<double>(m));

  thread_local std::vector<double> dots;
  dots.resize(static_cast<size_t>(count));
  SlidingDotsInto(query, m, dots.data());

  // The dot->distance conversion (flat guards included) is the vectorized
  // kernel shared with STOMP.
  simd::ZNormDistRow(dots.data(), stats.mean.data(), stats.stddev.data(),
                     q_mean, q_std, m, out, count);
}

std::vector<double> MassContext::DistanceProfile(
    const std::vector<double>& query) const {
  const int64_t m = static_cast<int64_t>(query.size());
  std::vector<double> profile(static_cast<size_t>(size() - m + 1));
  const RollingStats stats = Stats(m);
  DistanceProfileInto(query.data(), m, stats, profile.data());
  return profile;
}

NearestWindowIndex::NearestWindowIndex(const std::vector<double>& series,
                                       int64_t m)
    : m_(m), centred_(series) {
  const int64_t n = static_cast<int64_t>(series.size());
  TRIAD_CHECK(m >= 1 && m <= n);
  double mean = 0.0;
  for (double v : series) mean += v;
  mean /= static_cast<double>(n);
  for (double& v : centred_) v -= mean;
  const RollingStats stats = ComputeRollingStats(centred_, m);
  inv_sd_.resize(stats.stddev.size());
  for (size_t i = 0; i < stats.stddev.size(); ++i) {
    const bool flat = stats.stddev[i] < 1e-12;
    has_flat_ = has_flat_ || flat;
    inv_sd_[i] = flat ? std::numeric_limits<double>::quiet_NaN()
                      : 1.0 / stats.stddev[i];
  }
}

double NearestWindowIndex::NearestDistance(
    const std::vector<double>& query) const {
  TRIAD_CHECK(static_cast<int64_t>(query.size()) == m_);
  // Scans run from pool workers; Counter increments are exact under
  // concurrency.
  static metrics::Counter* profiles_counter =
      metrics::Registry::Global().counter("mass.profiles");
  profiles_counter->Increment();

  const double dm = static_cast<double>(m_);
  double q_mean = 0.0;
  for (double v : query) q_mean += v;
  q_mean /= dm;
  std::vector<double> q(query.size());
  double q_ss = 0.0;
  for (size_t k = 0; k < query.size(); ++k) {
    q[k] = query[k] - q_mean;
    q_ss += q[k] * q[k];
  }
  const double q_std = std::sqrt(q_ss / dm);
  const double inf = std::numeric_limits<double>::infinity();
  if (q_std < 1e-12) return has_flat_ ? 0.0 : inf;

  const double best =
      simd::SlidingCorrMax(q.data(), m_, centred_.data(), inv_sd_.data(),
                           static_cast<int64_t>(inv_sd_.size()));
  if (best == -inf) return inf;  // every window is flat
  const double corr = std::min(std::max(best / (dm * q_std), -1.0), 1.0);
  return std::sqrt(std::max(0.0, 2.0 * dm * (1.0 - corr)));
}

std::vector<double> MassDistanceProfile(const std::vector<double>& series,
                                        const std::vector<double>& query) {
  const MassContext ctx(series);
  return ctx.DistanceProfile(query);
}

double ZNormDistanceEarlyAbandon(const double* a, double mean_a, double std_a,
                                 const double* b, double mean_b, double std_b,
                                 int64_t m, double best_so_far) {
  // Flat-vs-non-flat pairs have no defined z-normalized distance; +inf makes
  // downstream isfinite checks exclude them (matches simd::ZNormDistRow).
  const bool a_flat = std_a < 1e-12;
  const bool b_flat = std_b < 1e-12;
  if (a_flat || b_flat) {
    return (a_flat && b_flat) ? 0.0
                              : std::numeric_limits<double>::infinity();
  }

  const double threshold = best_so_far * best_so_far;
  const double inv_a = 1.0 / std_a;
  const double inv_b = 1.0 / std_b;
  double acc = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    const double za = (a[i] - mean_a) * inv_a;
    const double zb = (b[i] - mean_b) * inv_b;
    const double d = za - zb;
    acc += d * d;
    if (acc > threshold) return std::sqrt(acc);  // abandoned: lower bound only
  }
  return std::sqrt(acc);
}

std::vector<double> MatrixProfileNaive(const std::vector<double>& series,
                                       int64_t m) {
  const int64_t n = static_cast<int64_t>(series.size());
  TRIAD_CHECK(m >= 1 && m <= n);
  const int64_t count = n - m + 1;
  const int64_t exclusion = m;  // non-self match: |i - j| >= m
  std::vector<double> profile(static_cast<size_t>(count),
                              std::numeric_limits<double>::infinity());
  // One shared context: the series spectrum and the rolling stats are
  // loop-invariant, so they are computed once here instead of once per row,
  // and each row's query is a pointer into the context's series instead of
  // a fresh vector.
  const MassContext ctx(series);
  const RollingStats stats = ctx.Stats(m);
  // Rows are independent (each computes its own MASS profile and writes
  // only its own slot), so they fan out across the pool deterministically.
  ParallelFor(0, count, /*grain=*/1, [&](int64_t begin, int64_t end) {
    std::vector<double> dp(static_cast<size_t>(count));
    for (int64_t i = begin; i < end; ++i) {
      ctx.DistanceProfileInto(ctx.series().data() + i, m, stats, dp.data());
      double best = std::numeric_limits<double>::infinity();
      for (int64_t j = 0; j < count; ++j) {
        if (std::llabs(j - i) < exclusion) continue;
        best = std::min(best, dp[static_cast<size_t>(j)]);
      }
      profile[static_cast<size_t>(i)] = best;
    }
  });
  return profile;
}

}  // namespace triad::discord
