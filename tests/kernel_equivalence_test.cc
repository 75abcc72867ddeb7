// Property-based equivalence of the dispatched SIMD kernels against the
// scalar reference (common/simd.h, nn/kernels.h), over randomized shapes:
// unaligned lengths, vector-remainder tails, denormals, signed zeros and
// ±inf. The determinism contract under test:
//
//  * elementwise kernels (axpy/add/mul/relu, the blocked conv/GEMM row
//    accumulations ConvRowsAccum and CorrRowsAccum, the STOMP sliding-dot
//    update, the z-norm distance row, the discord sweep's correlation row,
//    its four-pair confirm distances, the selection scan's sliding
//    correlation max) are BIT-IDENTICAL to the scalar reference;
//  * reduction kernels (dot/sum and the conv/gemm gradients built on them)
//    accumulate in double at every tier and may diverge only by reordered
//    double-rounding — asserted here as <= 4 ULP of the float32 result.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "discord/mass.h"
#include "nn/kernels.h"

namespace triad {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kDenorm = 1e-42f;  // subnormal float

// Lengths that exercise every dispatch regime: below one vector, exactly
// one vector, straddling the 8/4-lane block boundary, and large.
const std::vector<int64_t> kLengths = {1,  2,  3,  4,  5,  7,  8,  9,
                                       15, 16, 17, 31, 32, 33, 63, 64,
                                       65, 100, 255, 1000, 4097};

// Monotone integer key over the ordered floats; ULP distance is the key
// difference. Infinities map like ordinary ordered values.
int64_t FloatKey(float x) {
  const uint32_t u = std::bit_cast<uint32_t>(x);
  return (u & 0x80000000u) ? -static_cast<int64_t>(u & 0x7fffffffu)
                           : static_cast<int64_t>(u);
}

int64_t UlpDiff(float a, float b) {
  return std::llabs(FloatKey(a) - FloatKey(b));
}

std::vector<float> RandomFloats(int64_t n, Rng* rng, bool with_denormals) {
  std::vector<float> x(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] = static_cast<float>(rng->Normal(0.0, 1.0));
  }
  if (with_denormals && n >= 3) {
    x[0] = kDenorm;
    x[static_cast<size_t>(n / 2)] = -kDenorm;
    x[static_cast<size_t>(n - 1)] = -0.0f;
  }
  return x;
}

std::vector<double> RandomDoubles(int64_t n, Rng* rng, double scale = 1.0) {
  std::vector<double> x(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] = rng->Normal(0.0, scale);
  }
  return x;
}

bool BestTierIsVector() {
  return simd::HighestSupportedLevel() != simd::Level::kScalar;
}

// ---------- dispatch plumbing ----------

TEST(SimdDispatchTest, ScopedForceLevelOverridesAndRestores) {
  const simd::Level ambient = simd::ActiveLevel();
  {
    simd::ScopedForceLevel force(simd::Level::kScalar);
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
    {
      simd::ScopedForceLevel inner(simd::HighestSupportedLevel());
      EXPECT_EQ(simd::ActiveLevel(), simd::HighestSupportedLevel());
    }
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  }
  EXPECT_EQ(simd::ActiveLevel(), ambient);
}

TEST(SimdDispatchTest, ForcedScalarTierMatchesReferenceBitForBit) {
  Rng rng(7);
  const std::vector<float> a = RandomFloats(257, &rng, true);
  const std::vector<float> b = RandomFloats(257, &rng, true);
  simd::ScopedForceLevel force(simd::Level::kScalar);
  const double dispatched = simd::Dot(a.data(), b.data(), 257);
  const double reference = simd::scalar::Dot(a.data(), b.data(), 257);
  EXPECT_EQ(std::bit_cast<uint64_t>(dispatched),
            std::bit_cast<uint64_t>(reference));
}

TEST(SimdDispatchTest, LevelNamesAreStable) {
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
}

// ---------- reductions: <= 4 ULP of the float32 result ----------

TEST(KernelEquivalenceTest, DotWithin4UlpAcrossShapes) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    for (int64_t n : kLengths) {
      const std::vector<float> a = RandomFloats(n, &rng, true);
      const std::vector<float> b = RandomFloats(n, &rng, true);
      const double ref = simd::scalar::Dot(a.data(), b.data(), n);
      simd::ScopedForceLevel force(simd::HighestSupportedLevel());
      const double got = simd::Dot(a.data(), b.data(), n);
      EXPECT_LE(UlpDiff(static_cast<float>(got), static_cast<float>(ref)), 4)
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(KernelEquivalenceTest, SumWithin4UlpAcrossShapes) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    for (int64_t n : kLengths) {
      const std::vector<float> x = RandomFloats(n, &rng, true);
      const double ref = simd::scalar::Sum(x.data(), n);
      simd::ScopedForceLevel force(simd::HighestSupportedLevel());
      const double got = simd::Sum(x.data(), n);
      EXPECT_LE(UlpDiff(static_cast<float>(got), static_cast<float>(ref)), 4)
          << "n=" << n << " seed=" << seed;
    }
  }
}

// ---------- elementwise: bit-identical ----------

TEST(KernelEquivalenceTest, AxpyBitIdenticalAcrossShapes) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    for (int64_t n : kLengths) {
      const std::vector<float> x = RandomFloats(n, &rng, true);
      std::vector<float> y_ref = RandomFloats(n, &rng, true);
      std::vector<float> y_got = y_ref;
      const float alpha =
          seed == 1 ? kDenorm : static_cast<float>(rng.Normal(0.0, 1.0));
      simd::scalar::Axpy(alpha, x.data(), y_ref.data(), n);
      simd::ScopedForceLevel force(simd::HighestSupportedLevel());
      simd::Axpy(alpha, x.data(), y_got.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(y_got[static_cast<size_t>(i)]),
                  std::bit_cast<uint32_t>(y_ref[static_cast<size_t>(i)]))
            << "n=" << n << " i=" << i << " seed=" << seed;
      }
    }
  }
}

TEST(KernelEquivalenceTest, AddBitIdenticalIncludingInfinities) {
  Rng rng(11);
  for (int64_t n : kLengths) {
    std::vector<float> a = RandomFloats(n, &rng, true);
    std::vector<float> b = RandomFloats(n, &rng, true);
    a[0] = kInf;
    if (n > 1) b[static_cast<size_t>(n - 1)] = -kInf;
    std::vector<float> ref(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    simd::scalar::Add(a.data(), b.data(), ref.data(), n);
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    simd::Add(a.data(), b.data(), got.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[static_cast<size_t>(i)]),
                std::bit_cast<uint32_t>(ref[static_cast<size_t>(i)]))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelEquivalenceTest, MulBitIdenticalIncludingDenormalProducts) {
  Rng rng(12);
  for (int64_t n : kLengths) {
    // Denormal x normal products underflow to denormal/zero — the vector
    // tier must round them identically (no flush-to-zero).
    const std::vector<float> a = RandomFloats(n, &rng, true);
    const std::vector<float> b = RandomFloats(n, &rng, true);
    std::vector<float> ref(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    simd::scalar::Mul(a.data(), b.data(), ref.data(), n);
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    simd::Mul(a.data(), b.data(), got.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[static_cast<size_t>(i)]),
                std::bit_cast<uint32_t>(ref[static_cast<size_t>(i)]))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelEquivalenceTest, ReluBitIdenticalIncludingEdgeValues) {
  Rng rng(13);
  for (int64_t n : kLengths) {
    std::vector<float> x = RandomFloats(n, &rng, true);
    x[0] = -kInf;
    if (n > 1) x[1] = kInf;
    if (n > 2) x[2] = -0.0f;
    std::vector<float> ref(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    simd::scalar::Relu(x.data(), ref.data(), n);
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    simd::Relu(x.data(), got.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[static_cast<size_t>(i)]),
                std::bit_cast<uint32_t>(ref[static_cast<size_t>(i)]))
          << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(ref[0], 0.0f);  // relu(-inf) = 0
    if (n > 1) {
      EXPECT_EQ(ref[1], kInf);  // relu(+inf) = +inf
    }
    if (n > 2) {  // relu(-0.0) = +0.0
      EXPECT_EQ(std::bit_cast<uint32_t>(ref[2]), 0u);
    }
  }
}

TEST(KernelEquivalenceTest, SlidingDotUpdateBitIdenticalAcrossShapes) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 31);
    for (int64_t n : kLengths) {
      const std::vector<double> tail = RandomDoubles(n, &rng);
      const std::vector<double> head = RandomDoubles(n, &rng);
      const double drop = rng.Normal(0.0, 1.0);
      const double add = rng.Normal(0.0, 1.0);
      std::vector<double> qt_ref = RandomDoubles(n, &rng, 10.0);
      std::vector<double> qt_got = qt_ref;
      simd::scalar::SlidingDotUpdate(qt_ref.data(), n, drop, tail.data(), add,
                                     head.data());
      simd::ScopedForceLevel force(simd::HighestSupportedLevel());
      simd::SlidingDotUpdate(qt_got.data(), n, drop, tail.data(), add,
                             head.data());
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(qt_got[static_cast<size_t>(i)]),
                  std::bit_cast<uint64_t>(qt_ref[static_cast<size_t>(i)]))
            << "n=" << n << " i=" << i << " seed=" << seed;
      }
    }
  }
}

TEST(KernelEquivalenceTest, ZNormDistRowBitIdenticalWithFlatGuards) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 17);
    for (int64_t n : kLengths) {
      const int64_t m = 8 + static_cast<int64_t>(seed);
      const std::vector<double> dot = RandomDoubles(n, &rng, 4.0);
      const std::vector<double> mu = RandomDoubles(n, &rng);
      std::vector<double> sd(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        sd[static_cast<size_t>(i)] = std::abs(rng.Normal(1.0, 0.5)) + 1e-3;
      }
      // Flat windows sprinkled in (including a denormal stddev below the
      // 1e-12 guard) must hit the infinite-distance branch in both tiers.
      sd[0] = 0.0;
      if (n > 5) sd[5] = 1e-300;
      std::vector<double> ref(static_cast<size_t>(n)),
          got(static_cast<size_t>(n));
      simd::scalar::ZNormDistRow(dot.data(), mu.data(), sd.data(), 0.25, 1.5,
                                 m, ref.data(), n);
      simd::ScopedForceLevel force(simd::HighestSupportedLevel());
      simd::ZNormDistRow(dot.data(), mu.data(), sd.data(), 0.25, 1.5, m,
                         got.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(got[static_cast<size_t>(i)]),
                  std::bit_cast<uint64_t>(ref[static_cast<size_t>(i)]))
            << "n=" << n << " i=" << i << " seed=" << seed;
      }
      EXPECT_TRUE(std::isinf(ref[0]));  // flat window: marked incomparable
      EXPECT_GT(ref[0], 0.0);
    }
  }
}

TEST(KernelEquivalenceTest, ZNormDistRowFlatQueryMatchesScalar) {
  Rng rng(99);
  const int64_t n = 133, m = 16;
  const std::vector<double> dot = RandomDoubles(n, &rng);
  const std::vector<double> mu = RandomDoubles(n, &rng);
  std::vector<double> sd(static_cast<size_t>(n), 1.0);
  sd[7] = 0.0;  // flat query x flat window -> exactly 0
  std::vector<double> ref(static_cast<size_t>(n)), got(static_cast<size_t>(n));
  simd::scalar::ZNormDistRow(dot.data(), mu.data(), sd.data(), 0.5,
                             /*sd_q=*/0.0, m, ref.data(), n);
  simd::ScopedForceLevel force(simd::HighestSupportedLevel());
  simd::ZNormDistRow(dot.data(), mu.data(), sd.data(), 0.5, 0.0, m, got.data(),
                     n);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(got[static_cast<size_t>(i)]),
              std::bit_cast<uint64_t>(ref[static_cast<size_t>(i)]));
  }
  EXPECT_EQ(ref[7], 0.0);                // flat query x flat window
  EXPECT_TRUE(std::isinf(ref[0]));       // flat query x structured window
  EXPECT_GT(ref[0], 0.0);
}

// CorrRowMax runs on NaN-poisoned 1/stddev (flat windows), infinite dot
// products and denormal operands; the returned row max, the updated dot
// row and the column maxima must all match the scalar tier bit for bit.
TEST(KernelEquivalenceTest, CorrRowMaxBitIdenticalWithFlatsInfAndDenormals) {
  constexpr double kDenormal = 4.9e-324;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 43);
    for (int64_t n : kLengths) {
      std::vector<double> q = RandomDoubles(n, &rng, 10.0);
      std::vector<double> mu = RandomDoubles(n, &rng);
      std::vector<double> inv_sd(static_cast<size_t>(n));
      for (double& v : inv_sd) v = std::abs(rng.Normal(1.0, 0.5)) + 0.1;
      std::vector<double> col_max = RandomDoubles(n, &rng);
      const std::vector<double> tail = RandomDoubles(n, &rng);
      std::vector<double> head = RandomDoubles(n, &rng);
      inv_sd[0] = nan;  // flat column
      if (n > 2) q[1] = inf;
      if (n > 3) q[2] = -inf;
      if (n > 4) mu[3] = kDenormal;
      if (n > 5) head[4] = -kDenormal;
      if (n > 6) col_max[5] = -inf;
      if (n > 8) inv_sd[7] = nan;
      const double mu_row = rng.Normal(0.0, 1.0);
      const double inv_row = seed == 5 ? nan : 0.5 + rng.Uniform();
      std::vector<double> q_ref = q, q_got = q;
      std::vector<double> col_ref = col_max, col_got = col_max;
      const double ref = simd::scalar::CorrRowMax(
          q_ref.data(), n, 1.0 / 9.0, mu_row, inv_row, mu.data(),
          inv_sd.data(), col_ref.data(), 0.75, tail.data(), -1.25,
          head.data());
      simd::ScopedForceLevel force(simd::HighestSupportedLevel());
      const double got = simd::CorrRowMax(
          q_got.data(), n, 1.0 / 9.0, mu_row, inv_row, mu.data(),
          inv_sd.data(), col_got.data(), 0.75, tail.data(), -1.25,
          head.data());
      ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(ref))
          << "n=" << n << " seed=" << seed;
      EXPECT_FALSE(std::isnan(ref));  // NaN cells never win a max
      if (seed == 5) {
        EXPECT_EQ(ref, -inf);  // flat row: nothing ranks
      }
      for (int64_t i = 0; i < n; ++i) {
        const size_t si = static_cast<size_t>(i);
        ASSERT_EQ(std::bit_cast<uint64_t>(q_got[si]),
                  std::bit_cast<uint64_t>(q_ref[si]))
            << "n=" << n << " i=" << i << " seed=" << seed;
        ASSERT_EQ(std::bit_cast<uint64_t>(col_got[si]),
                  std::bit_cast<uint64_t>(col_ref[si]))
            << "n=" << n << " i=" << i << " seed=" << seed;
      }
    }
  }
}

// A zero row maximum is +0.0 at both tiers, whatever mix of signed zeros
// the lanes saw.
TEST(KernelEquivalenceTest, CorrRowMaxZeroMaximumHasOneSign) {
  for (int64_t n : kLengths) {
    std::vector<double> q(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      q[static_cast<size_t>(i)] = i % 3 == 0 ? 0.0 : -0.0;
    }
    const std::vector<double> mu(static_cast<size_t>(n), 1.0);
    const std::vector<double> inv_sd(static_cast<size_t>(n), 1.0);
    const std::vector<double> zeros(static_cast<size_t>(n), 0.0);
    for (simd::Level level :
         {simd::Level::kScalar, simd::HighestSupportedLevel()}) {
      simd::ScopedForceLevel force(level);
      std::vector<double> qq = q;
      std::vector<double> col(static_cast<size_t>(n),
                              -std::numeric_limits<double>::infinity());
      const double got = simd::CorrRowMax(
          qq.data(), n, 1.0, /*mu_row=*/0.0, 1.0, mu.data(), inv_sd.data(),
          col.data(), 0.0, zeros.data(), 0.0, zeros.data());
      EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(0.0))
          << "n=" << n << " level=" << simd::LevelName(level);
    }
  }
}

// SlidingCorrMax on both tiers; the results must be bit-identical.
double SlidingCorrMaxOnTier(simd::Level level, const std::vector<double>& q,
                            const std::vector<double>& x,
                            const std::vector<double>& inv_sd) {
  simd::ScopedForceLevel force(level);
  return simd::SlidingCorrMax(q.data(), static_cast<int64_t>(q.size()),
                              x.data(), inv_sd.data(),
                              static_cast<int64_t>(inv_sd.size()));
}

void ExpectSlidingCorrMaxTiersAgree(const std::vector<double>& q,
                                    const std::vector<double>& x,
                                    const std::vector<double>& inv_sd,
                                    const std::string& label) {
  const double ref = simd::scalar::SlidingCorrMax(
      q.data(), static_cast<int64_t>(q.size()), x.data(), inv_sd.data(),
      static_cast<int64_t>(inv_sd.size()));
  const double got =
      SlidingCorrMaxOnTier(simd::HighestSupportedLevel(), q, x, inv_sd);
  ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(ref))
      << label << " m=" << q.size() << " windows=" << inv_sd.size();
  EXPECT_FALSE(std::isnan(ref)) << label;  // NaN entries never win
}

// Window counts below, at and around the AVX2 tier's 4- and 16-window
// blocks, at query lengths from 1 up, with NaN (flat) entries sprinkled in.
TEST(KernelEquivalenceTest, SlidingCorrMaxBitIdenticalAcrossShapes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 61);
    for (int64_t m : {1, 2, 3, 7, 16, 40, 65}) {
      for (int64_t count : {1, 2, 3, 4, 5, 15, 16, 17, 19, 31, 32, 33, 100,
                            257}) {
        const std::vector<double> q = RandomDoubles(m, &rng);
        const std::vector<double> x = RandomDoubles(count + m - 1, &rng, 3.0);
        std::vector<double> inv_sd(static_cast<size_t>(count));
        for (double& v : inv_sd) v = 0.1 + rng.Uniform();
        if (seed >= 3) {
          for (int64_t i = 0; i < count; i += 3) {
            inv_sd[static_cast<size_t>(i)] = nan;
          }
        }
        ExpectSlidingCorrMaxTiersAgree(q, x, inv_sd, "seed " +
                                                         std::to_string(seed));
      }
    }
  }
}

// Every window flat: nothing ranks, so the result is -inf at both tiers.
TEST(KernelEquivalenceTest, SlidingCorrMaxAllNaNIsNegativeInfinity) {
  Rng rng(67);
  for (int64_t count : {1, 3, 4, 16, 21, 64}) {
    const std::vector<double> q = RandomDoubles(9, &rng);
    const std::vector<double> x = RandomDoubles(count + 8, &rng);
    const std::vector<double> inv_sd(static_cast<size_t>(count),
                                     std::numeric_limits<double>::quiet_NaN());
    for (simd::Level level :
         {simd::Level::kScalar, simd::HighestSupportedLevel()}) {
      EXPECT_EQ(SlidingCorrMaxOnTier(level, q, x, inv_sd),
                -std::numeric_limits<double>::infinity())
          << "count=" << count << " level=" << simd::LevelName(level);
    }
  }
}

// Large offsets (the data the detector centres away) and denormal operands
// go through the same per-lane chain at both tiers.
TEST(KernelEquivalenceTest, SlidingCorrMaxBitIdenticalOnOffsetsAndDenormals) {
  constexpr double kDenormal = 4.9e-324;
  Rng rng(71);
  for (int64_t count : {1, 5, 16, 17, 50, 130}) {
    const int64_t m = 24;
    std::vector<double> q = RandomDoubles(m, &rng);
    std::vector<double> x = RandomDoubles(count + m - 1, &rng);
    std::vector<double> inv_sd(static_cast<size_t>(count));
    for (double& v : inv_sd) v = 0.5 + rng.Uniform();
    std::vector<double> offset = x;
    for (double& v : offset) v += 1e6;
    ExpectSlidingCorrMaxTiersAgree(q, offset, inv_sd, "1e6 offset");

    std::vector<double> tiny_q = q, tiny_x = x;
    for (double& v : tiny_q) v *= 1e-160;
    for (double& v : tiny_x) v *= 1e-160;  // products underflow to denormals
    tiny_q[0] = kDenormal;
    tiny_x[0] = -kDenormal;
    ExpectSlidingCorrMaxTiersAgree(tiny_q, tiny_x, inv_sd, "denormals");
  }
}

// ZNormDistEarlyAbandon4 at both tiers against four scalar
// ZNormDistanceEarlyAbandon calls on the same (mean, stddev) pairs, with
// 1/stddev as ExactDiscords' set-up computes it (NaN when flat). Limits
// stop every lane at its first term (0), no lane (+inf), or some lanes
// (each lane's own distance, and values between them); flat windows sit
// among non-flat ones, against a flat row, and at a stddev below the 1e-12
// threshold but not zero; m is 1, 3, 5 and 37; windows sit at 0 and at a
// 1e6 offset.
TEST(KernelEquivalenceTest, ZNormDistEarlyAbandon4MatchesScalarDistance) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto inv_of = [](double sd) {
    return sd < 1e-12 ? std::numeric_limits<double>::quiet_NaN() : 1.0 / sd;
  };
  int compared = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 97);
    for (int64_t m : {1, 3, 5, 37}) {
      for (double offset : {0.0, 1e6}) {
        std::vector<double> a = RandomDoubles(m, &rng);
        std::vector<double> b = RandomDoubles(m + 3, &rng, 2.0);
        for (double& v : a) v += offset;
        for (double& v : b) v += offset;
        // flat: 0 none, 1 lane 2 at sd 0, 2 lanes 1 and 3 just under the
        // threshold, 3 the row and lane 0 flat.
        for (int flat = 0; flat < 4; ++flat) {
          double mu_a = offset + rng.Normal(0.0, 0.1);
          double sd_a = 0.5 + rng.Uniform();
          double mu_b[4], sd_b[4], inv_b[4];
          for (int l = 0; l < 4; ++l) {
            mu_b[l] = offset + rng.Normal(0.0, 0.2);
            sd_b[l] = 0.5 + 2.0 * rng.Uniform();
          }
          if (flat == 1) sd_b[2] = 0.0;
          if (flat == 2) sd_b[1] = sd_b[3] = 5e-13;
          if (flat == 3) sd_a = sd_b[0] = 0.0;
          for (int l = 0; l < 4; ++l) inv_b[l] = inv_of(sd_b[l]);
          const auto scalar = [&](int l, double limit) {
            return discord::ZNormDistanceEarlyAbandon(
                a.data(), mu_a, sd_a, b.data() + l, mu_b[l], sd_b[l], m,
                limit);
          };
          std::vector<double> limits = {0.0, inf};
          for (int l = 0; l < 4; ++l) {
            const double exact = scalar(l, inf);
            if (!std::isfinite(exact)) continue;
            limits.push_back(exact);
            limits.push_back(0.5 * exact);
            limits.push_back(std::nextafter(exact, 0.0));
          }
          for (double limit : limits) {
            double want[4];
            for (int l = 0; l < 4; ++l) want[l] = scalar(l, limit);
            for (simd::Level level :
                 {simd::Level::kScalar, simd::HighestSupportedLevel()}) {
              simd::ScopedForceLevel force(level);
              double got[4];
              simd::ZNormDistEarlyAbandon4(a.data(), mu_a, inv_of(sd_a),
                                           b.data(), mu_b, inv_b, m, limit,
                                           got);
              for (int l = 0; l < 4; ++l) {
                ASSERT_EQ(std::bit_cast<uint64_t>(got[l]),
                          std::bit_cast<uint64_t>(want[l]))
                    << "m=" << m << " offset=" << offset << " flat=" << flat
                    << " lane=" << l << " limit=" << limit
                    << " level=" << simd::LevelName(level);
              }
              ++compared;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 500);
}

// ---------- fused kernels: per-element chains pinned to the primitives ----

// Bit equality where any NaN matches any NaN: the payload an add of two
// NaNs keeps depends on operand order, which the chain does not fix.
void ExpectSameFloats(const std::vector<float>& ref,
                      const std::vector<float>& got, const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (size_t i = 0; i < ref.size(); ++i) {
    if (std::isnan(ref[i]) && std::isnan(got[i])) continue;
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(ref[i]))
        << what << " i=" << i;
  }
}

// Weights with exact zeros of both signs every third entry and inputs
// with ±inf, NaN and -0.0 planted, so a kept term, a skipped term and a
// special value all meet in the same rows.
std::vector<float> SparseWeights(int64_t n, Rng* rng) {
  std::vector<float> w = RandomFloats(n, rng, true);
  for (int64_t i = 0; i < n; i += 3) {
    w[static_cast<size_t>(i)] = (i % 2) ? -0.0f : 0.0f;
  }
  return w;
}

std::vector<float> InputsWithSpecials(int64_t n, Rng* rng) {
  std::vector<float> x = RandomFloats(n, rng, true);
  const float specials[] = {kInf, -kInf, kNaN, -0.0f};
  for (int64_t i = 0; i < 4 && i < n; ++i) {
    x[static_cast<size_t>((i * 7919 + n / 3) % n)] = specials[i];
  }
  return x;
}

// ConvRowsAccum covers Conv1d forward, Gemm (taps = 1, dilation = 0) and
// GemmTransA (weights read down a column, wterm = rows of A); row counts
// off the 4-row block and every column tail.
TEST(KernelEquivalenceTest, ConvRowsAccumBitIdenticalAcrossShapes) {
  Rng rng(31);
  struct Shape {
    int64_t rows, cin, taps, dilation, lout;
  };
  for (const Shape& sh : {Shape{1, 1, 1, 1, 1}, Shape{4, 16, 3, 4, 143},
                          Shape{7, 5, 3, 2, 37}, Shape{3, 2, 5, 1, 9},
                          Shape{5, 70, 1, 0, 16}, Shape{6, 16, 1, 0, 1},
                          Shape{2, 3, 2, 8, 100}}) {
    for (const bool column_weights : {false, true}) {
      const int64_t terms = sh.cin * sh.taps;
      const int64_t xstride = sh.lout + (sh.taps - 1) * sh.dilation + 3;
      const std::vector<float> x = InputsWithSpecials(sh.cin * xstride, &rng);
      const std::vector<float> w = SparseWeights(sh.rows * terms, &rng);
      // Row-major weights (conv, Gemm) or one column per row (GemmTransA).
      const int64_t wrow = column_weights ? 1 : terms;
      const int64_t wterm = column_weights ? sh.rows : 1;
      const std::vector<float> seed =
          InputsWithSpecials(sh.rows * sh.lout, &rng);
      std::vector<float> ref = seed, got = seed;
      simd::scalar::ConvRowsAccum(x.data(), xstride, w.data(), wrow, wterm,
                                  sh.cin, sh.taps, sh.dilation, ref.data(),
                                  sh.lout, sh.rows, sh.lout);
      simd::ScopedForceLevel force(simd::HighestSupportedLevel());
      simd::ConvRowsAccum(x.data(), xstride, w.data(), wrow, wterm, sh.cin,
                          sh.taps, sh.dilation, got.data(), sh.lout, sh.rows,
                          sh.lout);
      ExpectSameFloats(ref, got,
                       "rows=" + std::to_string(sh.rows) +
                           " cin=" + std::to_string(sh.cin) +
                           " taps=" + std::to_string(sh.taps) +
                           " lout=" + std::to_string(sh.lout) +
                           (column_weights ? " column" : " row"));
    }
  }
}

TEST(KernelEquivalenceTest, CorrRowsAccumBitIdenticalAcrossShapes) {
  Rng rng(32);
  // Includes lout < (taps-1)*dilation shapes, where the row is all edge
  // and the vector tier's interior blocks are empty, and row counts off
  // the 4-row block.
  for (const auto& [rows, cout, taps, dilation, lout] :
       {std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t>{1, 1, 1, 1, 5},
        {4, 4, 3, 1, 33},
        {5, 8, 3, 4, 64},
        {3, 5, 5, 2, 3},
        {2, 3, 4, 8, 7},
        {6, 2, 3, 2, 100},
        {4, 16, 3, 4, 143},
        {7, 70, 1, 1, 17}}) {
    const int64_t span = (taps - 1) * dilation;
    const int64_t wrow = taps, wstride = rows * taps;
    const std::vector<float> g = InputsWithSpecials(cout * lout, &rng);
    const std::vector<float> w = SparseWeights(cout * wstride, &rng);
    const std::vector<float> seed =
        InputsWithSpecials(rows * (lout + span), &rng);
    std::vector<float> ref = seed;
    std::vector<float> got = seed;
    simd::scalar::CorrRowsAccum(g.data(), lout, w.data(), wrow, wstride, cout,
                                taps, dilation, ref.data(), lout + span, rows,
                                lout);
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    simd::CorrRowsAccum(g.data(), lout, w.data(), wrow, wstride, cout, taps,
                        dilation, got.data(), lout + span, rows, lout);
    ExpectSameFloats(ref, got,
                     "rows=" + std::to_string(rows) +
                         " cout=" + std::to_string(cout) +
                         " taps=" + std::to_string(taps) +
                         " dilation=" + std::to_string(dilation) +
                         " lout=" + std::to_string(lout));
  }
}

// ConvTapDotTile's contract is per-dot bit-identity with Dot *at the same
// tier* (the tile only shares conversions and runs folds and tails four
// dots wide), plus the usual <= 4 ULP envelope against the scalar
// reference. taps = 1 is GemmTransB's use: one row dotted against up to
// four others.
TEST(KernelEquivalenceTest, ConvTapDotTileMatchesPerTapDot) {
  Rng rng(33);
  for (const int64_t taps : {1, 2, 3, 5, 8}) {
    for (const int64_t rows : {1, 2, 4, 5}) {
      for (const int64_t dilation : {1, 2, 4}) {
        for (const int64_t lout : {1, 7, 8, 16, 33, 143}) {
          const int64_t gstride = lout + 5;
          const std::vector<float> g = RandomFloats(rows * gstride, &rng, true);
          const std::vector<float> x =
              RandomFloats(lout + (taps - 1) * dilation, &rng, true);
          for (const simd::Level level :
               {simd::Level::kScalar, simd::HighestSupportedLevel()}) {
            simd::ScopedForceLevel force(level);
            std::vector<double> tile(static_cast<size_t>(rows * taps));
            simd::ConvTapDotTile(x.data(), g.data(), gstride, rows, taps,
                                 dilation, lout, tile.data());
            for (int64_t r = 0; r < rows; ++r) {
              for (int64_t t = 0; t < taps; ++t) {
                const double want = simd::Dot(x.data() + t * dilation,
                                              g.data() + r * gstride, lout);
                ASSERT_EQ(
                    std::bit_cast<uint64_t>(tile[static_cast<size_t>(r * taps + t)]),
                    std::bit_cast<uint64_t>(want))
                    << simd::LevelName(level) << " taps=" << taps
                    << " rows=" << rows << " dilation=" << dilation
                    << " lout=" << lout << " r=" << r << " t=" << t;
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, AddReluBitIdenticalIncludingEdgeValues) {
  Rng rng(34);
  for (int64_t n : kLengths) {
    std::vector<float> a = RandomFloats(n, &rng, true);
    std::vector<float> b = RandomFloats(n, &rng, true);
    a[0] = kInf;
    if (n > 1) b[static_cast<size_t>(n - 1)] = -b[static_cast<size_t>(n - 1)];
    if (n > 2) {  // NaN sum: relu(inf + -inf) must be 0 in both tiers
      a[2] = kInf;
      b[2] = -kInf;
    }
    std::vector<float> ref(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    simd::scalar::AddRelu(a.data(), b.data(), ref.data(), n);
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    simd::AddRelu(a.data(), b.data(), got.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[static_cast<size_t>(i)]),
                std::bit_cast<uint32_t>(ref[static_cast<size_t>(i)]))
          << "n=" << n << " i=" << i;
    }
    if (n > 2) {
      EXPECT_EQ(ref[2], 0.0f);
    }
  }
}

TEST(KernelEquivalenceTest, AddReluMaskBitIdenticalIncludingNaNSums) {
  Rng rng(35);
  for (int64_t n : kLengths) {
    std::vector<float> a = RandomFloats(n, &rng, true);
    std::vector<float> b = RandomFloats(n, &rng, true);
    const std::vector<float> g = RandomFloats(n, &rng, true);
    if (n > 2) {  // NaN sum masks the gradient to 0 in both tiers
      a[2] = kInf;
      b[2] = -kInf;
    }
    std::vector<float> ref(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    simd::scalar::AddReluMask(a.data(), b.data(), g.data(), ref.data(), n);
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    simd::AddReluMask(a.data(), b.data(), g.data(), got.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[static_cast<size_t>(i)]),
                std::bit_cast<uint32_t>(ref[static_cast<size_t>(i)]))
          << "n=" << n << " i=" << i;
    }
    if (n > 2) {
      EXPECT_EQ(ref[2], 0.0f);
    }
  }
}

TEST(KernelEquivalenceTest, ReluMaskBitIdenticalIncludingNaNAndNegZero) {
  Rng rng(36);
  for (int64_t n : kLengths) {
    std::vector<float> x = RandomFloats(n, &rng, true);
    const std::vector<float> g = RandomFloats(n, &rng, true);
    if (n > 2) x[2] = kNaN;   // NaN input masks the gradient to 0
    if (n > 3) x[3] = -0.0f;  // -0 is not > 0: masks to 0
    std::vector<float> ref(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    simd::scalar::ReluMask(x.data(), g.data(), ref.data(), n);
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    simd::ReluMask(x.data(), g.data(), got.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[static_cast<size_t>(i)]),
                std::bit_cast<uint32_t>(ref[static_cast<size_t>(i)]))
          << "n=" << n << " i=" << i;
    }
    if (n > 2) {
      EXPECT_EQ(ref[2], 0.0f);
    }
    if (n > 3) {
      EXPECT_EQ(ref[3], 0.0f);
    }
  }
}

// ---------- composed kernels: conv / gemm ----------

// Runs fn once under the scalar tier and once under the best tier,
// returning both outputs.
template <typename Fn>
std::pair<std::vector<float>, std::vector<float>> RunBothTiers(int64_t out_size,
                                                               Fn fn) {
  std::vector<float> ref(static_cast<size_t>(out_size), 0.0f);
  std::vector<float> got(static_cast<size_t>(out_size), 0.0f);
  {
    simd::ScopedForceLevel force(simd::Level::kScalar);
    fn(ref.data());
  }
  {
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    fn(got.data());
  }
  return {std::move(ref), std::move(got)};
}

TEST(KernelEquivalenceTest, GemmForwardBitIdentical) {
  Rng rng(21);
  for (auto [m, k, n] : {std::tuple<int64_t, int64_t, int64_t>{3, 5, 7},
                         {8, 32, 32},
                         {1, 1, 1},
                         {16, 33, 9}}) {
    const std::vector<float> a = RandomFloats(m * k, &rng, true);
    const std::vector<float> b = RandomFloats(k * n, &rng, true);
    auto [ref, got] = RunBothTiers(m * n, [&](float* c) {
      nn::kernels::Gemm(a.data(), b.data(), c, m, k, n);
    });
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[i]),
                std::bit_cast<uint32_t>(ref[i]))
          << "m=" << m << " k=" << k << " n=" << n << " i=" << i;
    }
  }
}

TEST(KernelEquivalenceTest, GemmTransAForwardBitIdentical) {
  Rng rng(22);
  const int64_t m = 9, k = 17, n = 33;
  const std::vector<float> a = RandomFloats(k * m, &rng, true);
  const std::vector<float> b = RandomFloats(k * n, &rng, true);
  auto [ref, got] = RunBothTiers(m * n, [&](float* c) {
    nn::kernels::GemmTransA(a.data(), b.data(), c, m, k, n);
  });
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(ref[i]))
        << i;
  }
}

TEST(KernelEquivalenceTest, GemmTransBWithin4Ulp) {
  Rng rng(23);
  const int64_t m = 7, n = 129, k = 13;  // n is the reduced dimension
  const std::vector<float> a = RandomFloats(m * n, &rng, true);
  const std::vector<float> b = RandomFloats(k * n, &rng, true);
  auto [ref, got] = RunBothTiers(m * k, [&](float* c) {
    nn::kernels::GemmTransB(a.data(), b.data(), c, m, n, k);
  });
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_LE(UlpDiff(got[i], ref[i]), 4) << i;
  }
}

TEST(KernelEquivalenceTest, Conv1dForwardAndInputGradBitIdentical) {
  Rng rng(24);
  // Encoder-like shape with an unaligned length and a wide dilation.
  const int64_t B = 2, Cin = 3, Cout = 4, K = 3, dilation = 4;
  const int64_t Lout = 37, Lpad = Lout + dilation * (K - 1);
  const std::vector<float> xpad = RandomFloats(B * Cin * Lpad, &rng, true);
  const std::vector<float> w = RandomFloats(Cout * Cin * K, &rng, true);
  auto [ref, got] = RunBothTiers(B * Cout * Lout, [&](float* out) {
    nn::kernels::Conv1dForward(xpad.data(), w.data(), /*bias=*/nullptr, out,
                               B, Cin, Cout, K, Lpad, Lout, dilation);
  });
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(ref[i]))
        << i;
  }

  const std::vector<float> g = RandomFloats(B * Cout * Lout, &rng, true);
  auto [gref, ggot] = RunBothTiers(B * Cin * Lpad, [&](float* gxpad) {
    nn::kernels::Conv1dBackwardInput(g.data(), w.data(), gxpad, B, Cin, Cout,
                                     K, Lpad, Lout, dilation);
  });
  for (size_t i = 0; i < gref.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(ggot[i]),
              std::bit_cast<uint32_t>(gref[i]))
        << i;
  }
}

TEST(KernelEquivalenceTest, Conv1dWeightAndBiasGradWithin4Ulp) {
  Rng rng(25);
  const int64_t B = 2, Cin = 3, Cout = 4, K = 3, dilation = 2;
  const int64_t Lout = 41, Lpad = Lout + dilation * (K - 1);
  const std::vector<float> xpad = RandomFloats(B * Cin * Lpad, &rng, true);
  const std::vector<float> g = RandomFloats(B * Cout * Lout, &rng, true);
  auto [wref, wgot] = RunBothTiers(Cout * Cin * K, [&](float* gw) {
    nn::kernels::Conv1dBackwardWeight(g.data(), xpad.data(), gw, B, Cin, Cout,
                                      K, Lpad, Lout, dilation);
  });
  for (size_t i = 0; i < wref.size(); ++i) {
    EXPECT_LE(UlpDiff(wgot[i], wref[i]), 4) << i;
  }
  auto [bref, bgot] = RunBothTiers(Cout, [&](float* gb) {
    nn::kernels::Conv1dBackwardBias(g.data(), gb, B, Cout, Lout);
  });
  for (size_t i = 0; i < bref.size(); ++i) {
    EXPECT_LE(UlpDiff(bgot[i], bref[i]), 4) << i;
  }
}

// On a host without a vector tier every comparison above collapses to
// scalar-vs-scalar; record that fact so CI logs show what was covered.
TEST(KernelEquivalenceTest, ReportsCoveredTier) {
  SCOPED_TRACE(simd::LevelName(simd::HighestSupportedLevel()));
  if (!BestTierIsVector()) {
    GTEST_SKIP() << "no vector tier on this host; equivalence is trivial";
  }
  EXPECT_EQ(simd::HighestSupportedLevel(), simd::Level::kAvx2);
}

}  // namespace
}  // namespace triad
