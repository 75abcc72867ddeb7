#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "discord/mass.h"
#include "discord/stomp.h"

namespace triad::discord {
namespace {

constexpr double kPi = 3.14159265358979323846;

std::vector<double> PlantedSeries(size_t n, double period, size_t anomaly_at,
                                  size_t anomaly_len, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (size_t t = 0; t < n; ++t) {
    x[t] = std::sin(2.0 * kPi * static_cast<double>(t) / period) +
           rng.Normal(0.0, 0.05);
  }
  for (size_t t = anomaly_at; t < anomaly_at + anomaly_len && t < n; ++t) {
    x[t] += rng.Normal(0.0, 0.7);
  }
  return x;
}

TEST(StompTest, MatchesNaiveMatrixProfile) {
  const std::vector<double> x = PlantedSeries(250, 25, 120, 25, 1);
  const int64_t m = 20;
  auto stomp = Stomp(x, m);
  ASSERT_TRUE(stomp.ok());
  const std::vector<double> naive = MatrixProfileNaive(x, m);
  ASSERT_EQ(stomp->distances.size(), naive.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_NEAR(stomp->distances[i], naive[i], 1e-6) << i;
  }
}

TEST(StompTest, NeighbourIndicesAreValidAndNonTrivial) {
  const std::vector<double> x = PlantedSeries(300, 30, 150, 30, 2);
  const int64_t m = 25;
  auto stomp = Stomp(x, m);
  ASSERT_TRUE(stomp.ok());
  for (size_t i = 0; i < stomp->indices.size(); ++i) {
    const int64_t j = stomp->indices[i];
    ASSERT_GE(j, 0) << i;
    ASSERT_LT(j, static_cast<int64_t>(stomp->indices.size()));
    EXPECT_GE(std::llabs(j - static_cast<int64_t>(i)), m) << i;
    // The stored distance really is the distance to the stored neighbour.
    const std::vector<double> qi(x.begin() + static_cast<int64_t>(i),
                                 x.begin() + static_cast<int64_t>(i) + m);
    const double d =
        MassDistanceProfile(x, qi)[static_cast<size_t>(j)];
    EXPECT_NEAR(stomp->distances[i], d, 1e-6) << i;
  }
}

TEST(StompTest, TopDiscordIsThePlantedAnomaly) {
  const std::vector<double> x = PlantedSeries(400, 25, 200, 25, 3);
  auto stomp = Stomp(x, 25);
  ASSERT_TRUE(stomp.ok());
  const std::vector<int64_t> top = TopDiscordsFromProfile(*stomp, 25, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_NEAR(static_cast<double>(top[0]), 200.0, 30.0);
}

TEST(StompTest, TopKDiscordsAreMutuallyExclusive) {
  const std::vector<double> x = PlantedSeries(500, 25, 250, 25, 4);
  const int64_t m = 25;
  auto stomp = Stomp(x, m);
  ASSERT_TRUE(stomp.ok());
  const std::vector<int64_t> top = TopDiscordsFromProfile(*stomp, m, 4);
  for (size_t a = 0; a < top.size(); ++a) {
    for (size_t b = a + 1; b < top.size(); ++b) {
      EXPECT_GE(std::llabs(top[a] - top[b]), m);
    }
  }
}

TEST(StompTest, RejectsDegenerateInputs) {
  std::vector<double> x(30, 1.0);
  EXPECT_FALSE(Stomp(x, 1).ok());
  EXPECT_FALSE(Stomp(x, 20).ok());
}

}  // namespace
}  // namespace triad::discord
