#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/stats.h"
#include "signal/butterworth.h"
#include "signal/decompose.h"
#include "signal/spectral.h"
#include "signal/windows.h"

namespace triad::signal {
namespace {

constexpr double kPi = 3.14159265358979323846;

std::vector<double> Sine(size_t n, double period, double amp = 1.0,
                         double phase = 0.0) {
  std::vector<double> x(n);
  for (size_t t = 0; t < n; ++t) {
    x[t] = amp * std::sin(2.0 * kPi * static_cast<double>(t) / period + phase);
  }
  return x;
}

// ---------- spectral features (Table I) ----------

TEST(SpectralTest, TableIIdentitiesHold) {
  Rng rng(1);
  std::vector<double> x(50);
  for (auto& v : x) v = rng.Normal();
  const SpectralFeatures f = ComputeSpectralFeatures(x);
  ASSERT_EQ(f.amplitude.size(), x.size());
  for (size_t k = 0; k < x.size(); ++k) {
    // power = amplitude^2 (Table I definitions).
    EXPECT_NEAR(f.power[k], f.amplitude[k] * f.amplitude[k], 1e-6);
    EXPECT_GE(f.amplitude[k], 0.0);
    EXPECT_GE(f.phase[k], -kPi);
    EXPECT_LE(f.phase[k], kPi);
  }
}

TEST(SpectralTest, SineAmplitudePeaksAtItsBin) {
  const std::vector<double> x = Sine(64, 8.0);  // bin 64/8 = 8
  const SpectralFeatures f = ComputeSpectralFeatures(x);
  size_t best = 1;
  for (size_t k = 1; k <= 32; ++k) {
    if (f.amplitude[k] > f.amplitude[best]) best = k;
  }
  EXPECT_EQ(best, 8u);
}

TEST(SpectralTest, DominantFrequencyBin) {
  EXPECT_EQ(DominantFrequencyBin(Sine(128, 16.0)), 8u);   // 128/16
  EXPECT_EQ(DominantFrequencyBin(Sine(120, 24.0)), 5u);   // 120/24
}

// ---------- Butterworth ----------

TEST(ButterworthTest, RejectsBadParameters) {
  EXPECT_FALSE(ButterworthLowPass::Design(0, 0.5).ok());
  EXPECT_FALSE(ButterworthLowPass::Design(2, 0.0).ok());
  EXPECT_FALSE(ButterworthLowPass::Design(2, 1.0).ok());
  EXPECT_TRUE(ButterworthLowPass::Design(4, 0.3).ok());
}

TEST(ButterworthTest, UnityDcGain) {
  for (int order : {1, 2, 3, 5}) {
    auto filter = ButterworthLowPass::Design(order, 0.2);
    ASSERT_TRUE(filter.ok());
    // A long constant input must pass through unchanged in steady state.
    std::vector<double> ones(500, 1.0);
    const std::vector<double> y = filter->Filter(ones);
    EXPECT_NEAR(y.back(), 1.0, 1e-6) << "order " << order;
  }
}

TEST(ButterworthTest, AttenuatesAboveCutoffPassesBelow) {
  auto filter = ButterworthLowPass::Design(4, 0.2);
  ASSERT_TRUE(filter.ok());
  // Low frequency (0.05 of Nyquist): nearly unchanged.
  const std::vector<double> low = Sine(800, 40.0);  // freq = 2/40 = 0.05 Nyq
  const std::vector<double> low_out = filter->FiltFilt(low);
  // High frequency (0.5 of Nyquist): strongly attenuated.
  const std::vector<double> high = Sine(800, 4.0);  // freq = 0.5 Nyq
  const std::vector<double> high_out = filter->FiltFilt(high);
  // Evaluate away from the edges, where filtfilt's reflection padding
  // leaves a small transient.
  auto interior = [](const std::vector<double>& v) {
    return std::vector<double>(v.begin() + 100, v.end() - 100);
  };
  const double low_ratio = StdDev(interior(low_out)) / StdDev(interior(low));
  const double high_ratio =
      StdDev(interior(high_out)) / StdDev(interior(high));
  EXPECT_GT(low_ratio, 0.95);
  // Theoretical double-pass attenuation at 0.5 Nyquist is |H|^2 ~ 1e-4.
  EXPECT_LT(high_ratio, 0.01);
}

TEST(ButterworthTest, FiltFiltIsZeroPhase) {
  auto filter = ButterworthLowPass::Design(3, 0.25);
  ASSERT_TRUE(filter.ok());
  const std::vector<double> x = Sine(600, 50.0);
  const std::vector<double> y = filter->FiltFilt(x);
  ASSERT_EQ(y.size(), x.size());
  // Cross-correlation peak should be at zero lag (no phase shift).
  double best = -1e18;
  int best_lag = -99;
  for (int lag = -5; lag <= 5; ++lag) {
    double acc = 0.0;
    for (size_t i = 50; i + 50 < x.size(); ++i) {
      acc += x[i] * y[static_cast<size_t>(static_cast<int>(i) + lag)];
    }
    if (acc > best) {
      best = acc;
      best_lag = lag;
    }
  }
  EXPECT_EQ(best_lag, 0);
}

TEST(ButterworthTest, FiltFiltHandlesShortInputs) {
  auto filter = ButterworthLowPass::Design(3, 0.2);
  ASSERT_TRUE(filter.ok());
  EXPECT_TRUE(filter->FiltFilt({}).empty());
  const std::vector<double> y = filter->FiltFilt({1.0, 2.0, 3.0});
  EXPECT_EQ(y.size(), 3u);
}

// ---------- decomposition ----------

TEST(DecomposeTest, EstimatesSinePeriod) {
  for (double period : {20.0, 37.0, 64.0}) {
    const std::vector<double> x = Sine(800, period);
    const int64_t est = EstimatePeriod(x);
    EXPECT_NEAR(static_cast<double>(est), period, period * 0.15)
        << "true period " << period;
  }
}

TEST(DecomposeTest, PeriodRobustToNoise) {
  Rng rng(3);
  std::vector<double> x = Sine(1000, 50.0);
  for (auto& v : x) v += rng.Normal(0.0, 0.2);
  EXPECT_NEAR(static_cast<double>(EstimatePeriod(x)), 50.0, 8.0);
}

TEST(DecomposeTest, AutocorrelationBasics) {
  const std::vector<double> x = Sine(400, 40.0);
  const std::vector<double> acf = Autocorrelation(x, 100);
  EXPECT_NEAR(acf[0], 1.0, 1e-9);
  // ACF peaks near the period and dips near the half period.
  EXPECT_GT(acf[40], 0.8);
  EXPECT_LT(acf[20], -0.5);
}

TEST(DecomposeTest, MovingAverageFlattensSeasonality) {
  std::vector<double> x = Sine(300, 30.0);
  for (size_t i = 0; i < x.size(); ++i) x[i] += 0.01 * static_cast<double>(i);
  const std::vector<double> trend = MovingAverage(x, 30);
  // Interior trend should closely track the linear ramp.
  for (size_t i = 40; i + 40 < x.size(); ++i) {
    EXPECT_NEAR(trend[i], 0.01 * static_cast<double>(i), 0.05);
  }
}

TEST(DecomposeTest, RecoversSeasonalShape) {
  const std::vector<double> x = Sine(600, 30.0, 2.0);
  const Decomposition d = DecomposeWithPeriod(x, 30);
  ASSERT_EQ(d.seasonal.size(), x.size());
  // Seasonal component should carry nearly all the variance; the residual
  // should be tiny.
  EXPECT_LT(StdDev(d.residual), 0.1 * StdDev(d.seasonal));
  // Additivity: components sum back to the series.
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(d.trend[i] + d.seasonal[i] + d.residual[i], x[i], 1e-9);
  }
}

TEST(DecomposeTest, ResidualExposesInjectedSpike) {
  std::vector<double> x = Sine(600, 30.0);
  x[300] += 3.0;
  const std::vector<double> r = ResidualComponent(x, 30);
  EXPECT_EQ(ArgMax(r), 300);
}

// ---------- windows ----------

TEST(WindowsTest, StartsTileAndCoverTail) {
  const std::vector<int64_t> starts = SlidingWindowStarts(100, 30, 25);
  ASSERT_FALSE(starts.empty());
  EXPECT_EQ(starts.front(), 0);
  EXPECT_EQ(starts.back(), 70);  // tail window pulled back to end at 100
  for (size_t i = 1; i < starts.size(); ++i) {
    EXPECT_GT(starts[i], starts[i - 1]);
  }
}

TEST(WindowsTest, ExactTilingHasNoExtraTail) {
  const std::vector<int64_t> starts = SlidingWindowStarts(100, 20, 20);
  EXPECT_EQ(starts.size(), 5u);
  EXPECT_EQ(starts.back(), 80);
}

TEST(WindowsTest, SeriesShorterThanWindow) {
  EXPECT_TRUE(SlidingWindowStarts(10, 20, 5).empty());
}

TEST(WindowsTest, ZNormalizeProperties) {
  Rng rng(5);
  std::vector<double> x(200);
  for (auto& v : x) v = rng.Normal(3.0, 2.5);
  const std::vector<double> z = ZNormalized(x);
  EXPECT_NEAR(Mean(z), 0.0, 1e-9);
  EXPECT_NEAR(StdDev(z), 1.0, 1e-9);
}

TEST(WindowsTest, ZNormalizeFlatSeriesBecomesZeros) {
  std::vector<double> flat(50, 7.0);
  ZNormalizeInPlace(&flat);
  for (double v : flat) EXPECT_EQ(v, 0.0);
}

TEST(WindowsTest, EuclideanDistance) {
  EXPECT_DOUBLE_EQ(EuclideanDistance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance({1, 1}, {1, 1}), 0.0);
}

}  // namespace
}  // namespace triad::signal
