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

// ---------- StompStream (STOMPI append path, ARCHITECTURE.md §8) ----------

// The maintained profile is exact math over one unbroken sliding chain,
// while batch Stomp re-seeds every chunk via FFT — same values up to fp
// association, hence tolerance, not bitwise (see the header contract).
TEST(StompStreamTest, MatchesBatchStompWithinTolerance) {
  const std::vector<double> x = PlantedSeries(400, 25, 210, 25, 3);
  const int64_t m = 20;
  auto batch = Stomp(x, m);
  ASSERT_TRUE(batch.ok());

  StompStream stream(m);
  stream.Append(x);
  ASSERT_EQ(stream.count(), static_cast<int64_t>(batch->distances.size()));
  for (int64_t i = 0; i < stream.count(); ++i) {
    EXPECT_NEAR(stream.profile().distances[static_cast<size_t>(i)],
                batch->distances[static_cast<size_t>(i)], 1e-6)
        << i;
  }
  // And the ranking agrees where it matters: same top discord.
  const auto top_batch = TopDiscordsFromProfile(*batch, m, 1);
  const auto top_stream = TopDiscordsFromProfile(stream.profile(), m, 1);
  ASSERT_EQ(top_batch.size(), top_stream.size());
  if (!top_batch.empty()) EXPECT_EQ(top_batch[0], top_stream[0]);
}

// Appending in chunks runs the identical per-point update chain as one
// Append, so the maintained state is bitwise chunking-invariant.
TEST(StompStreamTest, ChunkedAppendsAreBitwiseOneShot) {
  const std::vector<double> x = PlantedSeries(300, 30, 140, 30, 4);
  const int64_t m = 16;
  StompStream one_shot(m);
  one_shot.Append(x);

  for (uint64_t seed : {7u, 8u}) {
    Rng rng(seed);
    StompStream chunked(m);
    size_t off = 0;
    while (off < x.size()) {
      const size_t len = std::min<size_t>(
          x.size() - off, static_cast<size_t>(rng.UniformInt(1, 41)));
      chunked.Append(std::vector<double>(
          x.begin() + static_cast<long>(off),
          x.begin() + static_cast<long>(off + len)));
      off += len;
    }
    ASSERT_EQ(chunked.count(), one_shot.count()) << "seed=" << seed;
    for (int64_t i = 0; i < chunked.count(); ++i) {
      EXPECT_EQ(chunked.profile().distances[static_cast<size_t>(i)],
                one_shot.profile().distances[static_cast<size_t>(i)])
          << "seed=" << seed << " i=" << i;
      EXPECT_EQ(chunked.profile().indices[static_cast<size_t>(i)],
                one_shot.profile().indices[static_cast<size_t>(i)])
          << "seed=" << seed << " i=" << i;
    }
  }
}

// AppendResult's changed hull is what callers use to restrict re-search:
// every pre-existing row NOT inside it must be untouched, and every row
// that did change must be inside it.
TEST(StompStreamTest, AppendReportsChangedRowsExactly) {
  const std::vector<double> x = PlantedSeries(350, 25, 180, 25, 5);
  const int64_t m = 20;
  StompStream stream(m);
  const int64_t warmup = 200;
  stream.Append(std::vector<double>(x.begin(), x.begin() + warmup));

  size_t off = static_cast<size_t>(warmup);
  while (off < x.size()) {
    const size_t len = std::min<size_t>(x.size() - off, 17);
    // Snapshot, append, diff.
    const MatrixProfile before = stream.profile();
    const int64_t old_count = stream.count();
    const auto result = stream.Append(std::vector<double>(
        x.begin() + static_cast<long>(off),
        x.begin() + static_cast<long>(off + len)));
    off += len;

    EXPECT_EQ(stream.count(), old_count + result.new_rows);
    EXPECT_LE(result.changed_begin, result.changed_end);
    EXPECT_LE(result.changed_end, stream.count());
    int64_t updated = 0;
    for (int64_t i = 0; i < old_count; ++i) {
      const bool changed =
          before.distances[static_cast<size_t>(i)] !=
              stream.profile().distances[static_cast<size_t>(i)] ||
          before.indices[static_cast<size_t>(i)] !=
              stream.profile().indices[static_cast<size_t>(i)];
      if (changed) {
        ++updated;
        EXPECT_GE(i, result.changed_begin);
        EXPECT_LT(i, result.changed_end);
      }
    }
    EXPECT_EQ(updated, result.updated_rows);
  }
}

}  // namespace
}  // namespace triad::discord
