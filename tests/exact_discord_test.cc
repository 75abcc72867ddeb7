// Exactness of discord::ExactDiscords, the detector's stage-3 search,
// against a naive matrix-profile oracle built from the direct distance.
//
// The oracle sends every non-trivial pair (|i - j| >= m) through
// ZNormDistanceEarlyAbandon with a +inf threshold on the series' own
// Stats(m), takes each row's minimum as its NN distance, and reports the
// lowest position among rows with the largest finite NN — or nothing when
// that NN is below 1e-9. The search must return the same set of lengths,
// the same positions and bit-identical distances on every input, at both
// SIMD tiers and at 1 and 4 pool lanes, for length steps 1 and 4. The
// inputs cover the regimes the sweep's rounding bound has to survive:
// large offsets, steep trends, stuck runs (flat and near-flat windows),
// exact repeats (ties) and lengths where some rows have no non-trivial
// neighbour at all.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "discord/discord.h"
#include "discord/mass.h"

namespace triad::discord {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kInf = std::numeric_limits<double>::infinity();

// NN distance of every row at length m, straight from the direct formula.
std::vector<double> OracleProfile(const MassContext& mass, int64_t m) {
  const RollingStats stats = mass.Stats(m);
  const int64_t count = mass.size() - m + 1;
  const double* t = mass.series().data();
  std::vector<double> nn(static_cast<size_t>(count), kInf);
  for (int64_t i = 0; i < count; ++i) {
    for (int64_t j = 0; j < count; ++j) {
      if (std::llabs(i - j) < m) continue;
      const size_t si = static_cast<size_t>(i), sj = static_cast<size_t>(j);
      nn[si] = std::min(
          nn[si], ZNormDistanceEarlyAbandon(t + i, stats.mean[si],
                                            stats.stddev[si], t + j,
                                            stats.mean[sj], stats.stddev[sj],
                                            m, kInf));
    }
  }
  return nn;
}

std::vector<Discord> OracleDiscords(const std::vector<double>& series,
                                    int64_t min_length, int64_t max_length,
                                    int64_t step) {
  const MassContext mass(series);
  std::vector<Discord> out;
  for (int64_t m = min_length; m <= max_length; m += step) {
    const std::vector<double> nn = OracleProfile(mass, m);
    Discord top;
    top.length = m;
    top.distance = -kInf;
    for (size_t i = 0; i < nn.size(); ++i) {
      if (std::isfinite(nn[i]) && nn[i] > top.distance) {
        top.distance = nn[i];
        top.position = static_cast<int64_t>(i);
      }
    }
    if (top.position >= 0 && top.distance >= 1e-9) out.push_back(top);
  }
  return out;
}

struct NamedSeries {
  std::string name;
  std::vector<double> x;
};

std::vector<NamedSeries> Inputs() {
  std::vector<NamedSeries> inputs;
  const int64_t n = 160;
  Rng rng(2024);
  auto series = [&](auto f) {
    std::vector<double> x(static_cast<size_t>(n));
    for (int64_t t = 0; t < n; ++t) x[static_cast<size_t>(t)] = f(t);
    return x;
  };
  inputs.push_back({"sine_noise", series([&](int64_t t) {
                      return std::sin(2.0 * kPi * static_cast<double>(t) /
                                      23.0) +
                             0.1 * rng.Normal(0.0, 1.0);
                    })});
  double walk = 0.0;
  inputs.push_back({"random_walk", series([&](int64_t) {
                      walk += rng.Normal(0.0, 1.0);
                      return walk;
                    })});
  inputs.push_back({"offset_1e6", series([&](int64_t t) {
                      return 1e6 + 1e-3 * std::sin(static_cast<double>(t)) +
                             1e-3 * rng.Normal(0.0, 1.0);
                    })});
  inputs.push_back({"steep_trend", series([&](int64_t t) {
                      return 50.0 * static_cast<double>(t) +
                             rng.Normal(0.0, 1.0);
                    })});
  // Two stuck runs (one at 0, flat to the last bit; one at 3.3, whose
  // prefix-sum stats may come out near-flat) between noisy stretches.
  inputs.push_back({"stuck_runs", series([&](int64_t t) {
                      if (t >= 30 && t < 75) return 0.0;
                      if (t >= 110 && t < 140) return 3.3;
                      return std::sin(static_cast<double>(t) / 3.0) +
                             0.2 * rng.Normal(0.0, 1.0);
                    })});
  // A noisy period of 20 repeated exactly, with one period altered.
  std::vector<double> period(20);
  for (double& v : period) v = rng.Normal(0.0, 1.0);
  inputs.push_back({"repeated_periods", series([&](int64_t t) {
                      const double v = period[static_cast<size_t>(t % 20)];
                      return t >= 100 && t < 120 ? -v : v;
                    })});
  // A 1000 offset leaves the prefix-sum Stats(m) off by ~1e-6 relative, so
  // the direct distance differs from 2m(1 - rho) by more than the sweep's
  // own rounding; the bound's Stats term must carry it. These three series
  // also hold exact ties at the top (see AgreesWithMerlinExceptAtExactTies).
  for (uint64_t seed : {37, 51, 71}) {
    Rng tie_rng(seed);
    std::vector<double> x(240);
    for (size_t t = 0; t < x.size(); ++t) {
      x[t] = 1000.0 + std::sin(2.0 * kPi * static_cast<double>(t) / 30.0) +
             0.05 * tie_rng.Normal(0.0, 1.0);
    }
    for (size_t t = 120; t < 140; ++t) x[t] += 0.5;
    inputs.push_back({"offset_1e3_seed" + std::to_string(seed), x});
  }
  return inputs;
}

void ExpectSameDiscords(const std::vector<Discord>& want,
                        const std::vector<Discord>& got,
                        const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(want[k].length, got[k].length) << where;
    EXPECT_EQ(want[k].position, got[k].position)
        << where << " m=" << want[k].length;
    EXPECT_EQ(std::bit_cast<uint64_t>(want[k].distance),
              std::bit_cast<uint64_t>(got[k].distance))
        << where << " m=" << want[k].length << " want " << want[k].distance
        << " got " << got[k].distance;
  }
}

// Runs `check` at both SIMD tiers and at 1 and 4 pool lanes.
template <typename F>
void AtEveryTierAndLaneCount(F check) {
  ThreadPool serial(1);
  ThreadPool quad(4);
  for (simd::Level level :
       {simd::Level::kScalar, simd::HighestSupportedLevel()}) {
    simd::ScopedForceLevel force(level);
    for (ThreadPool* pool : {&serial, &quad}) {
      ScopedDefaultPool scoped(pool);
      check(std::string(simd::LevelName(level)) + "/lanes=" +
            std::to_string(pool->num_threads()));
    }
  }
}

TEST(ExactDiscordsTest, MatchesNaiveOracleOnEveryInput) {
  for (const NamedSeries& in : Inputs()) {
    const int64_t max_len = static_cast<int64_t>(in.x.size()) / 2 - 1;
    for (int64_t step : {1, 4}) {
      const std::vector<Discord> want = OracleDiscords(in.x, 4, max_len, step);
      AtEveryTierAndLaneCount([&](const std::string& config) {
        auto got = ExactDiscords(in.x, 4, max_len, step);
        ASSERT_TRUE(got.ok()) << in.name;
        ExpectSameDiscords(want, got->discords,
                           in.name + " step=" + std::to_string(step) + " " +
                               config);
      });
    }
  }
}

// Length ranges that stress the row-0 dot row each chunk of lengths
// carries from one length to the next: an odd start with an odd step, a
// single length, a range whose last lengths are cut by 2m > n, a range
// whose every chunk holds several lengths, and a paced fleet's region
// shape (n = 120, lengths 4-40 every 4th).
TEST(ExactDiscordsTest, CarriedSeedMatchesOracleOnEveryRangeShape) {
  struct Range {
    int64_t min_length, max_length, step;
  };
  std::vector<NamedSeries> inputs = Inputs();
  Rng rng(120);
  std::vector<double> paced(120);
  for (size_t t = 0; t < paced.size(); ++t) {
    paced[t] = std::sin(2.0 * kPi * static_cast<double>(t) / 40.0) +
               0.05 * rng.Normal(0.0, 1.0);
  }
  for (size_t t = 70; t < 80; ++t) paced[t] += 0.4;
  inputs.push_back({"paced_region", paced});
  for (const NamedSeries& in : inputs) {
    const int64_t n = static_cast<int64_t>(in.x.size());
    const std::vector<Range> ranges = {
        {5, n / 2 - 1, 3},   // odd start and step
        {17, 17, 1},         // min_length == max_length
        {n / 2 - 7, n, 2},   // the lengths past n/2 are cut
        {6, n / 2 - 1, 2},   // every chunk holds several lengths
        {4, 40, 4},          // a paced fleet's region shape
    };
    for (const Range& r : ranges) {
      const std::string where =
          in.name + " [" + std::to_string(r.min_length) + ", " +
          std::to_string(r.max_length) + "] step " + std::to_string(r.step);
      const std::vector<Discord> want = OracleDiscords(
          in.x, r.min_length, std::min(r.max_length, n / 2), r.step);
      AtEveryTierAndLaneCount([&](const std::string& config) {
        auto got = ExactDiscords(in.x, r.min_length, r.max_length, r.step);
        ASSERT_TRUE(got.ok()) << where;
        ExpectSameDiscords(want, got->discords, where + " " + config);
      });
    }
  }
}

// At m = n/2 - 1 the rows in the middle have no partner |i - j| >= m, so
// they must not rank (their correlation never leaves its -inf seed); the
// rest still report their exact top.
TEST(ExactDiscordsTest, RowsWithoutNonTrivialNeighbourNeverRank) {
  Rng rng(7);
  std::vector<double> x(90);
  for (double& v : x) v = rng.Normal(0.0, 1.0);
  const int64_t m = static_cast<int64_t>(x.size()) / 2 - 1;
  const std::vector<Discord> want = OracleDiscords(x, m, m, 1);
  ASSERT_EQ(want.size(), 1u);
  AtEveryTierAndLaneCount([&](const std::string& config) {
    auto got = ExactDiscords(x, m, m, 1);
    ASSERT_TRUE(got.ok());
    ExpectSameDiscords(want, got->discords, config);
  });
}

// A noisy stretch followed by one long stuck run: at m = n/3 every
// non-trivial neighbour of every non-flat row is flat (+inf), and flat rows
// only reach 0, so the length reports nothing.
TEST(ExactDiscordsTest, RowWhoseEveryNeighbourIsFlatReportsNothing) {
  Rng rng(11);
  std::vector<double> x(120, 0.0);
  for (size_t t = 0; t < 40; ++t) x[t] = rng.Normal(0.0, 1.0);
  const int64_t m = 40;
  EXPECT_TRUE(OracleDiscords(x, m, m, 1).empty());
  AtEveryTierAndLaneCount([&](const std::string& config) {
    auto got = ExactDiscords(x, m, m, 1);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->discords.empty()) << config;
  });
}

// Merlin and the sweep report bit-identical distances; a position may
// differ only where both rows tie at that distance (Merlin breaks ties by
// its DRAG candidate order, the sweep by lowest position). Seeds 37, 51
// and 71 each contain such a tie: a mutual nearest-neighbour pair whole
// periods apart holds the top distance.
TEST(ExactDiscordsTest, AgreesWithMerlinExceptAtExactTies) {
  int ties = 0;
  for (uint64_t seed : {1, 37, 51, 71}) {
    Rng rng(seed);
    std::vector<double> x(240);
    for (size_t t = 0; t < x.size(); ++t) {
      x[t] = std::sin(2.0 * kPi * static_cast<double>(t) / 30.0) +
             0.05 * rng.Normal(0.0, 1.0);
    }
    for (size_t t = 120; t < 140; ++t) x[t] += 0.5;
    for (int64_t step : {1, 4}) {
      auto merlin = Merlin(x, 4, 80, step);
      auto exact = ExactDiscords(x, 4, 80, step);
      ASSERT_TRUE(merlin.ok());
      ASSERT_TRUE(exact.ok());
      ASSERT_EQ(merlin->discords.size(), exact->discords.size());
      const MassContext mass(x);
      for (size_t k = 0; k < exact->discords.size(); ++k) {
        const Discord& a = merlin->discords[k];
        const Discord& b = exact->discords[k];
        ASSERT_EQ(a.length, b.length);
        EXPECT_EQ(std::bit_cast<uint64_t>(a.distance),
                  std::bit_cast<uint64_t>(b.distance))
            << "seed=" << seed << " m=" << a.length;
        if (a.position != b.position) {
          // Both rows must be exact NN ties at the reported distance, and
          // the sweep must have taken the lower one.
          const std::vector<double> nn = OracleProfile(mass, a.length);
          EXPECT_EQ(nn[static_cast<size_t>(a.position)], b.distance);
          EXPECT_EQ(nn[static_cast<size_t>(b.position)], b.distance);
          EXPECT_LT(b.position, a.position);
          ++ties;
        }
      }
    }
  }
  EXPECT_GE(ties, 3);
}

TEST(ExactDiscordsTest, RejectsInvalidRangesLikeMerlin) {
  std::vector<double> x(100, 0.0);
  EXPECT_FALSE(ExactDiscords(x, 10, 5).ok());
  EXPECT_FALSE(ExactDiscords(x, 1, 10).ok());
  EXPECT_FALSE(ExactDiscords(x, 60, 70).ok());  // 2m > n
  EXPECT_FALSE(ExactDiscords(x, 4, 10, 0).ok());
}

}  // namespace
}  // namespace triad::discord
