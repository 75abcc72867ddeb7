#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/detector.h"
#include "data/ucr_generator.h"
#include "discord/discord.h"
#include "discord/mass.h"
#include "signal/windows.h"

namespace triad::discord {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Periodic series with one anomalous cycle: the canonical discord workload.
std::vector<double> PlantedAnomalySeries(size_t n, double period,
                                         size_t anomaly_at, size_t anomaly_len,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (size_t t = 0; t < n; ++t) {
    x[t] = std::sin(2.0 * kPi * static_cast<double>(t) / period) +
           rng.Normal(0.0, 0.05);
  }
  for (size_t t = anomaly_at; t < anomaly_at + anomaly_len && t < n; ++t) {
    // Frequency-doubled segment.
    x[t] = std::sin(4.0 * kPi * static_cast<double>(t) / period) +
           rng.Normal(0.0, 0.05);
  }
  return x;
}

// ---------- rolling stats / MASS ----------

TEST(RollingStatsTest, MatchesDirectComputation) {
  Rng rng(1);
  std::vector<double> x(60);
  for (auto& v : x) v = rng.Normal(2.0, 3.0);
  const int64_t m = 12;
  const RollingStats stats = ComputeRollingStats(x, m);
  ASSERT_EQ(stats.mean.size(), x.size() - m + 1);
  for (size_t i = 0; i + m <= x.size(); ++i) {
    double mu = 0.0;
    for (int64_t j = 0; j < m; ++j) mu += x[i + static_cast<size_t>(j)];
    mu /= m;
    double ss = 0.0;
    for (int64_t j = 0; j < m; ++j) {
      const double d = x[i + static_cast<size_t>(j)] - mu;
      ss += d * d;
    }
    EXPECT_NEAR(stats.mean[i], mu, 1e-9);
    EXPECT_NEAR(stats.stddev[i], std::sqrt(ss / m), 1e-8);
  }
}

TEST(MassTest, MatchesNaiveZNormDistance) {
  Rng rng(2);
  std::vector<double> series(80);
  for (auto& v : series) v = rng.Normal();
  std::vector<double> query(series.begin() + 10, series.begin() + 26);
  const std::vector<double> profile = MassDistanceProfile(series, query);
  ASSERT_EQ(profile.size(), series.size() - query.size() + 1);
  const std::vector<double> qz = signal::ZNormalized(query);
  for (size_t i = 0; i < profile.size(); ++i) {
    const std::vector<double> wz = signal::ZNormalized(std::vector<double>(
        series.begin() + i, series.begin() + i + query.size()));
    EXPECT_NEAR(profile[i], signal::EuclideanDistance(qz, wz), 1e-6) << i;
  }
}

TEST(MassTest, SelfMatchHasZeroDistance) {
  Rng rng(3);
  std::vector<double> series(50);
  for (auto& v : series) v = rng.Normal();
  std::vector<double> query(series.begin() + 20, series.begin() + 30);
  const std::vector<double> profile = MassDistanceProfile(series, query);
  EXPECT_NEAR(profile[20], 0.0, 1e-6);
}

TEST(MassTest, FlatWindowsGetInfiniteDistance) {
  std::vector<double> series(40, 0.0);
  for (size_t i = 20; i < 40; ++i) series[i] = std::sin(0.7 * i);
  std::vector<double> query(series.begin() + 25, series.begin() + 35);
  const std::vector<double> profile = MassDistanceProfile(series, query);
  // A flat window has no z-normalized shape: +inf marks it incomparable so
  // discord ranking excludes it (ARCHITECTURE.md §5).
  EXPECT_TRUE(std::isinf(profile[0]));
  EXPECT_GT(profile[0], 0.0);
}

TEST(MassTest, FlatQueryAgainstFlatWindowIsZero) {
  std::vector<double> series(40, 2.5);
  for (size_t i = 20; i < 40; ++i) series[i] = std::sin(0.7 * i) + 2.5;
  std::vector<double> query(series.begin() + 0, series.begin() + 10);  // flat
  const std::vector<double> profile = MassDistanceProfile(series, query);
  EXPECT_EQ(profile[0], 0.0);               // flat vs flat: identical shape
  EXPECT_TRUE(std::isinf(profile[25]));     // flat vs structured: excluded
}

// ---------- nearest-window index (the detector's selection scan) ----------

// Long-double direct oracle for NearestWindowIndex::NearestDistance: the
// z-normalized Euclidean distance from `query` to every window, each side
// normalized by its own two-pass mean and stddev, with the flat conventions
// of simd::ZNormDistRow.
double NearestDistanceOracle(const std::vector<double>& series,
                             const std::vector<double>& query) {
  using LD = long double;
  const size_t m = query.size();
  const auto znorm = [m](const double* w, std::vector<LD>* out) {
    LD mean = 0;
    for (size_t k = 0; k < m; ++k) mean += w[k];
    mean /= static_cast<LD>(m);
    LD ss = 0;
    for (size_t k = 0; k < m; ++k) ss += (w[k] - mean) * (w[k] - mean);
    const LD sd = std::sqrt(ss / static_cast<LD>(m));
    if (sd < 1e-12L) return false;  // flat
    out->resize(m);
    for (size_t k = 0; k < m; ++k) (*out)[k] = (w[k] - mean) / sd;
    return true;
  };
  std::vector<LD> qz, wz;
  const bool q_ok = znorm(query.data(), &qz);
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i + m <= series.size(); ++i) {
    const bool w_ok = znorm(series.data() + i, &wz);
    if (!q_ok || !w_ok) {
      if (!q_ok && !w_ok) best = 0.0;
      continue;
    }
    LD acc = 0;
    for (size_t k = 0; k < m; ++k) acc += (qz[k] - wz[k]) * (qz[k] - wz[k]);
    best = std::min(best, static_cast<double>(std::sqrt(acc)));
  }
  return best;
}

// A noisy periodic training series and a query that is not in it (a
// frequency-doubled stretch), both shifted by `offset`.
std::pair<std::vector<double>, std::vector<double>> OffsetTrainAndQuery(
    double offset) {
  std::vector<double> train = PlantedAnomalySeries(2048, 50.0, 0, 0, 41);
  std::vector<double> query = PlantedAnomalySeries(64, 50.0, 20, 30, 43);
  for (double& v : train) v += offset;
  for (double& v : query) v += offset;
  return {train, query};
}

TEST(NearestWindowIndexTest, MatchesLongDoubleOracleWhereMassDrifts) {
  for (double offset : {0.0, 1e3, 1e6}) {
    const auto [train, query] = OffsetTrainAndQuery(offset);
    const double oracle = NearestDistanceOracle(train, query);
    ASSERT_TRUE(std::isfinite(oracle));
    ASSERT_GT(oracle, 1.0);  // well away from 0, so relative error is apt
    const NearestWindowIndex index(train, 64);
    EXPECT_NEAR(index.NearestDistance(query), oracle, 1e-9 * oracle)
        << "offset " << offset;

    // The FFT profile's minimum is what the detector used to take; its
    // m·mean_q·mean_i subtraction cancels catastrophically on offset data.
    const std::vector<double> profile = MassDistanceProfile(train, query);
    const double mass_min = *std::min_element(profile.begin(), profile.end());
    const double mass_error = std::abs(mass_min - oracle) / oracle;
    if (offset == 0.0) {
      EXPECT_LT(mass_error, 1e-9);
    } else {
      EXPECT_GT(mass_error, offset == 1e6 ? 1e-3 : 1e-9) << "offset " << offset;
    }
  }
}

TEST(NearestWindowIndexTest, FlatConventionsFollowZNormDistRow) {
  // Training series with a flat stretch, then structure.
  std::vector<double> with_flat(80, 2.5);
  for (size_t i = 40; i < with_flat.size(); ++i) {
    with_flat[i] = std::sin(0.7 * static_cast<double>(i)) + 2.5;
  }
  std::vector<double> structured(80);
  for (size_t i = 0; i < structured.size(); ++i) {
    structured[i] = std::sin(0.3 * static_cast<double>(i));
  }
  const std::vector<double> flat_query(10, -4.0);
  const double inf = std::numeric_limits<double>::infinity();

  const NearestWindowIndex flat_index(with_flat, 10);
  EXPECT_EQ(flat_index.NearestDistance(flat_query), 0.0);
  const NearestWindowIndex structured_index(structured, 10);
  EXPECT_EQ(structured_index.NearestDistance(flat_query), inf);

  // A flat window never matches a non-flat query: the nearest is the
  // oracle's, taken over the structured windows only.
  std::vector<double> query(10);
  for (size_t k = 0; k < query.size(); ++k) {
    query[k] = std::sin(0.7 * static_cast<double>(k)) +
               0.3 * std::cos(1.3 * static_cast<double>(k));
  }
  const double oracle = NearestDistanceOracle(with_flat, query);
  ASSERT_TRUE(std::isfinite(oracle));
  ASSERT_GT(oracle, 0.1);
  EXPECT_NEAR(flat_index.NearestDistance(query), oracle, 1e-9 * oracle);

  // Against an all-flat series nothing matches.
  const NearestWindowIndex all_flat(std::vector<double>(30, 7.0), 10);
  EXPECT_EQ(all_flat.NearestDistance(query), inf);
  EXPECT_EQ(all_flat.NearestDistance(flat_query), 0.0);
}

TEST(NearestWindowIndexTest, WindowAsLongAsTheSeries) {
  Rng rng(47);
  std::vector<double> series(33), other(33);
  for (double& v : series) v = rng.Normal(5.0, 2.0);
  for (double& v : other) v = rng.Normal();
  const NearestWindowIndex index(series, 33);
  EXPECT_NEAR(index.NearestDistance(series), 0.0, 1e-6);
  const double oracle = NearestDistanceOracle(series, other);
  EXPECT_NEAR(index.NearestDistance(other), oracle, 1e-9 * oracle);
}

// Selection fans candidates out over the pool; the deviations Detect
// stores in its memo must not depend on the lane count.
TEST(NearestWindowIndexTest, DetectDeviationsAreThreadInvariant) {
  data::UcrGeneratorOptions gen;
  gen.count = 1;
  gen.seed = 29;
  gen.min_period = 32;
  gen.max_period = 32;
  gen.min_train_periods = 14;
  gen.max_train_periods = 14;
  gen.min_test_periods = 10;
  gen.max_test_periods = 10;
  const data::UcrDataset ds = data::MakeUcrArchive(gen)[0];
  core::TriadConfig config;
  config.depth = 2;
  config.hidden_dim = 8;
  config.epochs = 2;
  config.seed = 5;
  config.merlin_length_step = 4;
  core::TriadDetector detector(config);
  ASSERT_TRUE(detector.Fit(ds.train).ok());

  std::vector<std::unordered_map<int64_t, double>> deviations;
  for (int64_t threads : {1, 4}) {
    ThreadPool pool(threads);
    ScopedDefaultPool scoped(&pool);
    core::DetectMemo memo;
    ASSERT_TRUE(detector.Detect(ds.test, &memo, /*global_start=*/0).ok());
    ASSERT_FALSE(memo.deviations.empty());
    deviations.push_back(memo.deviations);
  }
  ASSERT_EQ(deviations[0].size(), deviations[1].size());
  for (const auto& [start, deviation] : deviations[0]) {
    ASSERT_TRUE(deviations[1].count(start)) << start;
    EXPECT_EQ(std::bit_cast<uint64_t>(deviations[1].at(start)),
              std::bit_cast<uint64_t>(deviation))
        << "window at " << start;
  }
}

TEST(EarlyAbandonTest, ExactWhenNotAbandoned) {
  Rng rng(4);
  std::vector<double> a(20), b(20);
  for (auto& v : a) v = rng.Normal();
  for (auto& v : b) v = rng.Normal();
  const RollingStats sa = ComputeRollingStats(a, 20);
  const RollingStats sb = ComputeRollingStats(b, 20);
  const double d = ZNormDistanceEarlyAbandon(
      a.data(), sa.mean[0], sa.stddev[0], b.data(), sb.mean[0], sb.stddev[0],
      20, 1e18);
  EXPECT_NEAR(d,
              signal::EuclideanDistance(signal::ZNormalized(a),
                                        signal::ZNormalized(b)),
              1e-9);
}

TEST(EarlyAbandonTest, AbandonedValueIsLowerBound) {
  Rng rng(5);
  std::vector<double> a(30), b(30);
  for (auto& v : a) v = rng.Normal();
  for (auto& v : b) v = rng.Normal();
  const RollingStats sa = ComputeRollingStats(a, 30);
  const RollingStats sb = ComputeRollingStats(b, 30);
  const double exact = ZNormDistanceEarlyAbandon(
      a.data(), sa.mean[0], sa.stddev[0], b.data(), sb.mean[0], sb.stddev[0],
      30, 1e18);
  const double abandoned = ZNormDistanceEarlyAbandon(
      a.data(), sa.mean[0], sa.stddev[0], b.data(), sb.mean[0], sb.stddev[0],
      30, exact * 0.1);
  EXPECT_LE(abandoned, exact + 1e-9);
  EXPECT_GT(abandoned, exact * 0.1);  // exceeded the abandon threshold
}

// ---------- discord algorithms ----------

TEST(BruteForceTest, FindsPlantedAnomaly) {
  const std::vector<double> x = PlantedAnomalySeries(600, 40, 300, 40, 6);
  auto discord = BruteForceDiscord(x, 40);
  ASSERT_TRUE(discord.ok());
  EXPECT_NEAR(static_cast<double>(discord->position), 300.0, 25.0);
}

TEST(BruteForceTest, RejectsDegenerateInputs) {
  std::vector<double> x(20, 1.0);
  EXPECT_FALSE(BruteForceDiscord(x, 1).ok());
  EXPECT_FALSE(BruteForceDiscord(x, 15).ok());  // 2m > n
}

TEST(DragTest, AgreesWithBruteForceWhenRangeAdmits) {
  const std::vector<double> x = PlantedAnomalySeries(400, 25, 200, 25, 7);
  const int64_t m = 25;
  auto brute = BruteForceDiscord(x, m);
  ASSERT_TRUE(brute.ok());
  // With r slightly below the true top discord distance, DRAG must find the
  // same discord.
  DiscordStats stats;
  auto drag = DragDiscord(x, m, brute->distance * 0.95, &stats);
  ASSERT_TRUE(drag.ok());
  ASSERT_TRUE(drag->has_value());
  EXPECT_EQ((*drag)->position, brute->position);
  EXPECT_NEAR((*drag)->distance, brute->distance, 1e-6);
  EXPECT_GT(stats.candidates_after_phase1, 0);
}

TEST(DragTest, ReturnsEmptyWhenRangeTooHigh) {
  const std::vector<double> x = PlantedAnomalySeries(400, 25, 200, 25, 8);
  auto drag = DragDiscord(x, 25, 1e6);
  ASSERT_TRUE(drag.ok());
  EXPECT_FALSE(drag->has_value());
}

class MerlinVariantTest : public ::testing::TestWithParam<bool> {};

TEST_P(MerlinVariantTest, FindsPlantedAnomalyAcrossLengths) {
  const bool plus_plus = GetParam();
  const std::vector<double> x = PlantedAnomalySeries(500, 30, 250, 30, 9);
  auto result = plus_plus ? MerlinPlusPlus(x, 20, 40, 5)
                          : Merlin(x, 20, 40, 5);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->discords.empty());
  // Most discord hits should localize near the planted anomaly.
  int near = 0;
  for (const Discord& d : result->discords) {
    if (std::llabs(d.position - 250) < 60) ++near;
  }
  EXPECT_GE(near * 2, static_cast<int>(result->discords.size()));
}

INSTANTIATE_TEST_SUITE_P(Variants, MerlinVariantTest,
                         ::testing::Values(false, true));

TEST(MerlinTest, PlusPlusMatchesMerlinExactly) {
  const std::vector<double> x = PlantedAnomalySeries(400, 25, 180, 30, 10);
  auto base = Merlin(x, 15, 35, 4);
  auto fast = MerlinPlusPlus(x, 15, 35, 4);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(fast.ok());
  ASSERT_EQ(base->discords.size(), fast->discords.size());
  for (size_t i = 0; i < base->discords.size(); ++i) {
    EXPECT_EQ(base->discords[i].position, fast->discords[i].position) << i;
    EXPECT_EQ(base->discords[i].length, fast->discords[i].length) << i;
    EXPECT_NEAR(base->discords[i].distance, fast->discords[i].distance, 1e-6);
  }
}

TEST(MerlinTest, PlusPlusDoesLessPointwiseWork) {
  const std::vector<double> x = PlantedAnomalySeries(1200, 40, 600, 40, 11);
  auto base = Merlin(x, 30, 50, 10);
  auto fast = MerlinPlusPlus(x, 30, 50, 10);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_LT(fast->stats.pointwise_distance_ops,
            base->stats.pointwise_distance_ops);
}

TEST(MerlinTest, DiscordLengthsFollowRequestedGrid) {
  const std::vector<double> x = PlantedAnomalySeries(500, 30, 250, 30, 12);
  auto result = Merlin(x, 20, 32, 4);
  ASSERT_TRUE(result.ok());
  for (const Discord& d : result->discords) {
    EXPECT_EQ((d.length - 20) % 4, 0);
    EXPECT_GE(d.length, 20);
    EXPECT_LE(d.length, 32);
  }
}

TEST(MerlinTest, RejectsInvalidRanges) {
  std::vector<double> x(100, 0.0);
  EXPECT_FALSE(Merlin(x, 10, 5).ok());
  EXPECT_FALSE(Merlin(x, 1, 10).ok());
  EXPECT_FALSE(Merlin(x, 60, 70).ok());  // 2m > n
}

TEST(MatrixProfileTest, SymmetricSeriesHasLowProfileEverywhere) {
  // A perfectly periodic series: every subsequence has a near-twin.
  std::vector<double> x(300);
  for (size_t t = 0; t < x.size(); ++t) {
    x[t] = std::sin(2.0 * kPi * static_cast<double>(t) / 30.0);
  }
  const std::vector<double> profile = MatrixProfileNaive(x, 30);
  for (double v : profile) EXPECT_LT(v, 0.2);
}

}  // namespace
}  // namespace triad::discord
