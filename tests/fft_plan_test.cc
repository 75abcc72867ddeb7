// The plan cache's bit-identity contract (ARCHITECTURE.md §7): a planned
// transform must perform the exact same IEEE operation sequence as a
// from-scratch radix-2 / Bluestein transform, so every output — FFT bins,
// convolutions, MASS distance profiles — is bit-for-bit equal to the
// from-scratch reference kept here as the oracle. Also stresses the
// process-global cache from many threads (run under TSan in CI).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "discord/mass.h"
#include "signal/fft.h"
#include "signal/fft_plan.h"

namespace triad::signal {
namespace {

// ---------- from-scratch reference transforms (the oracle) ----------

constexpr double kPi = 3.14159265358979323846;

bool IsPowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// In-place iterative radix-2 Cooley-Tukey. `sign` is -1 for forward,
// +1 for inverse (without the 1/N normalization).
void FftRadix2InPlace(std::vector<Complex>* data, int sign) {
  const size_t n = data->size();
  if (n <= 1) return;
  ASSERT_TRUE(IsPowerOfTwo(n));
  auto& a = *data;

  // Bit reversal permutation.
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }

  for (size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * kPi / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (size_t j = 0; j < len / 2; ++j) {
        const Complex u = a[i + j];
        const Complex v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

// Bluestein chirp-z: exact DFT for arbitrary N via a power-of-two
// circular convolution.
std::vector<Complex> FftBluestein(const std::vector<Complex>& input,
                                  int sign) {
  const size_t n = input.size();
  const size_t m = NextPowerOfTwo(2 * n - 1);

  // Chirp factors w_k = exp(sign * i * pi * k^2 / n).
  std::vector<Complex> chirp(n);
  for (size_t k = 0; k < n; ++k) {
    // k^2 mod 2n keeps the argument small for long inputs.
    const uintmax_t k2 = (static_cast<uintmax_t>(k) * k) % (2 * n);
    const double angle = sign * kPi * static_cast<double>(k2) /
                         static_cast<double>(n);
    chirp[k] = Complex(std::cos(angle), std::sin(angle));
  }

  std::vector<Complex> a(m, Complex(0, 0));
  for (size_t k = 0; k < n; ++k) a[k] = input[k] * chirp[k];

  std::vector<Complex> b(m, Complex(0, 0));
  b[0] = std::conj(chirp[0]);
  for (size_t k = 1; k < n; ++k) {
    b[k] = std::conj(chirp[k]);
    b[m - k] = b[k];
  }

  FftRadix2InPlace(&a, -1);
  FftRadix2InPlace(&b, -1);
  for (size_t i = 0; i < m; ++i) a[i] *= b[i];
  FftRadix2InPlace(&a, +1);
  const double inv_m = 1.0 / static_cast<double>(m);

  std::vector<Complex> out(n);
  for (size_t k = 0; k < n; ++k) out[k] = a[k] * inv_m * chirp[k];
  return out;
}

std::vector<Complex> ReferenceTransform(const std::vector<Complex>& input,
                                        int sign) {
  if (input.empty()) return {};
  if (IsPowerOfTwo(input.size())) {
    std::vector<Complex> data = input;
    FftRadix2InPlace(&data, sign);
    return data;
  }
  return FftBluestein(input, sign);
}

std::vector<Complex> ReferenceInverseFft(const std::vector<Complex>& input) {
  std::vector<Complex> out = ReferenceTransform(input, +1);
  const double inv = 1.0 / static_cast<double>(out.size());
  for (auto& x : out) x *= inv;
  return out;
}

// Linear convolution of two real sequences via zero-padded radix-2 FFTs,
// output length a.size() + b.size() - 1.
std::vector<double> ReferenceConvolve(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  const size_t out_len = a.size() + b.size() - 1;
  const size_t m = NextPowerOfTwo(out_len);
  std::vector<Complex> fa(m, Complex(0, 0));
  std::vector<Complex> fb(m, Complex(0, 0));
  for (size_t i = 0; i < a.size(); ++i) fa[i] = Complex(a[i], 0);
  for (size_t i = 0; i < b.size(); ++i) fb[i] = Complex(b[i], 0);
  FftRadix2InPlace(&fa, -1);
  FftRadix2InPlace(&fb, -1);
  for (size_t i = 0; i < m; ++i) fa[i] *= fb[i];
  FftRadix2InPlace(&fa, +1);
  std::vector<double> out(out_len);
  const double inv = 1.0 / static_cast<double>(m);
  for (size_t i = 0; i < out_len; ++i) out[i] = fa[i].real() * inv;
  return out;
}

// Sliding dots dots[i] = sum_j series[i+j] * query[j], read off the
// reference convolution of the series with the reversed query.
std::vector<double> ReferenceSlidingDots(const std::vector<double>& series,
                                         const std::vector<double>& query) {
  const size_t m = query.size();
  const std::vector<double> reversed(query.rbegin(), query.rend());
  const std::vector<double> conv = ReferenceConvolve(series, reversed);
  return std::vector<double>(conv.begin() + static_cast<long>(m - 1),
                             conv.begin() + static_cast<long>(series.size()));
}

// MASS distance profile from the reference sliding dots and the shared
// dot->distance kernel, with the query and rolling stats computed as
// discord::MassContext computes them.
std::vector<double> ReferenceMassProfile(const std::vector<double>& series,
                                         const std::vector<double>& query) {
  const int64_t m = static_cast<int64_t>(query.size());
  const int64_t count = static_cast<int64_t>(series.size()) - m + 1;
  const std::vector<double> dots = ReferenceSlidingDots(series, query);
  double q_mean = 0.0;
  for (int64_t j = 0; j < m; ++j) q_mean += query[static_cast<size_t>(j)];
  q_mean /= static_cast<double>(m);
  double q_ss = 0.0;
  for (int64_t j = 0; j < m; ++j) {
    q_ss += (query[static_cast<size_t>(j)] - q_mean) *
            (query[static_cast<size_t>(j)] - q_mean);
  }
  const double q_std = std::sqrt(q_ss / static_cast<double>(m));
  const discord::RollingStats stats = discord::ComputeRollingStats(series, m);
  std::vector<double> out(static_cast<size_t>(count));
  simd::ZNormDistRow(dots.data(), stats.mean.data(), stats.stddev.data(),
                     q_mean, q_std, m, out.data(), count);
  return out;
}

// ---------- inputs ----------

std::vector<Complex> RandomSignal(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> x(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = Complex(rng.Normal(0.0, 1.0), rng.Normal(0.0, 1.0));
  }
  return x;
}

std::vector<double> RandomSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.13 * static_cast<double>(i)) + rng.Normal(0.0, 0.3);
  }
  return x;
}

// Bit-level equality: the contract is "same operation sequence", so even
// the sign of zero and NaN payloads must agree.
void ExpectBitEqual(const std::vector<Complex>& a,
                    const std::vector<Complex>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)));
}

void ExpectBitEqual(const std::vector<double>& a,
                    const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
}

// Power-of-two (radix-2), odd, prime, and even-composite (Bluestein)
// lengths, including the degenerate 1/2-point transforms.
const size_t kLengths[] = {1, 2, 4, 8, 64, 256, 1024, 3,  5,   7,
                           9, 15, 100, 127, 211, 500, 768, 1000, 1021};

TEST(FftPlanTest, PlannedForwardMatchesReferenceBitForBit) {
  for (size_t n : kLengths) {
    const std::vector<Complex> x = RandomSignal(n, 1000 + n);
    SCOPED_TRACE("n = " + std::to_string(n));
    ExpectBitEqual(ReferenceTransform(x, -1), Fft(x));
  }
}

TEST(FftPlanTest, PlannedInverseMatchesReferenceBitForBit) {
  for (size_t n : kLengths) {
    const std::vector<Complex> x = RandomSignal(n, 2000 + n);
    SCOPED_TRACE("n = " + std::to_string(n));
    ExpectBitEqual(ReferenceInverseFft(x), InverseFft(x));
  }
}

TEST(FftPlanTest, RepeatedPlannedCallsAreStable) {
  // The cached plan must give the same bits on every reuse (scratch
  // buffers fully overwritten, no stale state).
  const std::vector<Complex> x = RandomSignal(211, 42);
  const std::vector<Complex> first = Fft(x);
  for (int i = 0; i < 3; ++i) ExpectBitEqual(first, Fft(x));
}

TEST(FftPlanTest, ReferenceConvolutionMatchesNaive) {
  Rng rng(11);
  std::vector<double> a(23), b(9);
  for (auto& v : a) v = rng.Normal();
  for (auto& v : b) v = rng.Normal();
  const std::vector<double> fast = ReferenceConvolve(a, b);
  ASSERT_EQ(fast.size(), a.size() + b.size() - 1);
  for (size_t i = 0; i < fast.size(); ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < b.size(); ++j) {
      if (i >= j && i - j < a.size()) acc += a[i - j] * b[j];
    }
    EXPECT_NEAR(fast[i], acc, 1e-9);
  }
}

TEST(FftPlanTest, SlidingDotsMatchReferenceConvolutionBitForBit) {
  // MassContext's planned convolution: the cached spectrum of the padded
  // series times the query-side transform, then one inverse transform.
  for (size_t n : {size_t{17}, size_t{64}, size_t{333}}) {
    const std::vector<double> series = RandomSeries(n, 3000 + n);
    const std::vector<double> query = RandomSeries(n / 2 + 1, 4000 + n);
    const discord::MassContext ctx(series);
    std::vector<double> dots(n - query.size() + 1);
    ctx.SlidingDotsInto(query.data(), static_cast<int64_t>(query.size()),
                        dots.data());
    SCOPED_TRACE("n = " + std::to_string(n));
    ExpectBitEqual(ReferenceSlidingDots(series, query), dots);
  }
}

TEST(FftPlanTest, MassDistanceProfileMatchesReferenceBitForBit) {
  // The discord stack's consumer-facing guarantee: MASS profiles (series
  // spectrum reuse + planned transforms) match the from-scratch path.
  const std::vector<double> series = RandomSeries(1500, 7);
  const discord::MassContext ctx(series);
  for (int64_t m : {int64_t{8}, int64_t{100}, int64_t{257}}) {
    const std::vector<double> query(series.begin() + 31,
                                    series.begin() + 31 + m);
    const std::vector<double> planned =
        discord::MassDistanceProfile(series, query);
    SCOPED_TRACE("m = " + std::to_string(m));
    ExpectBitEqual(ReferenceMassProfile(series, query), planned);
    // A reused context must agree with the one-shot helper too.
    ExpectBitEqual(planned, ctx.DistanceProfile(query));
  }
}

TEST(FftPlanTest, ConcurrentPlanCacheStress) {
  // Many threads demand overlapping plan sizes and run transforms while
  // the cache is being populated; TSan verifies the locking discipline,
  // the asserts verify results are independent of interleaving.
  constexpr int kThreads = 8;
  const std::vector<size_t> sizes = {64, 100, 127, 256, 500, 1021};
  std::vector<std::vector<Complex>> expected;
  for (size_t n : sizes) expected.push_back(Fft(RandomSignal(n, 5000 + n)));

  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &sizes, &expected, &failures] {
      for (int round = 0; round < 20; ++round) {
        for (size_t s = 0; s < sizes.size(); ++s) {
          const size_t n = sizes[(s + static_cast<size_t>(t)) % sizes.size()];
          const std::vector<Complex> got = Fft(RandomSignal(n, 5000 + n));
          const std::vector<Complex>& want =
              expected[(s + static_cast<size_t>(t)) % sizes.size()];
          if (got.size() != want.size() ||
              std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(Complex)) != 0) {
            ++failures[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int f : failures) EXPECT_EQ(0, f);
}

TEST(FftPlanTest, ConcurrentMassContextStress) {
  // Concurrent MassContext users: shared spectra are built lazily under
  // the context's own lock while plan lookups hit the global cache.
  const std::vector<double> series = RandomSeries(2000, 11);
  const discord::MassContext ctx(series);
  const std::vector<double> query(series.begin() + 100,
                                  series.begin() + 180);
  const std::vector<double> expected = ctx.DistanceProfile(query);

  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &ctx, &query, &expected, &failures] {
      for (int round = 0; round < 10; ++round) {
        const std::vector<double> got = ctx.DistanceProfile(query);
        if (got.size() != expected.size() ||
            std::memcmp(got.data(), expected.data(),
                        got.size() * sizeof(double)) != 0) {
          ++failures[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int f : failures) EXPECT_EQ(0, f);
}

}  // namespace
}  // namespace triad::signal
