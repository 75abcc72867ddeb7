#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "signal/fft.h"

namespace triad::signal {
namespace {

constexpr double kPi = 3.14159265358979323846;

// O(n^2) reference DFT.
std::vector<Complex> NaiveDft(const std::vector<Complex>& x) {
  const size_t n = x.size();
  std::vector<Complex> out(n);
  for (size_t k = 0; k < n; ++k) {
    Complex acc(0, 0);
    for (size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * kPi * static_cast<double>(k * t) /
                           static_cast<double>(n);
      acc += x[t] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<Complex> RandomSignal(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.Normal(), rng.Normal());
  return x;
}

class FftSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FftSizeTest, MatchesNaiveDft) {
  const size_t n = GetParam();
  const std::vector<Complex> x = RandomSignal(n, 42 + n);
  const std::vector<Complex> fast = Fft(x);
  const std::vector<Complex> naive = NaiveDft(x);
  ASSERT_EQ(fast.size(), n);
  for (size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(fast[k].real(), naive[k].real(), 1e-6 * (1.0 + n)) << k;
    EXPECT_NEAR(fast[k].imag(), naive[k].imag(), 1e-6 * (1.0 + n)) << k;
  }
}

TEST_P(FftSizeTest, InverseRoundTrips) {
  const size_t n = GetParam();
  const std::vector<Complex> x = RandomSignal(n, 7 + n);
  const std::vector<Complex> back = InverseFft(Fft(x));
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i].real(), x[i].real(), 1e-8 * (1.0 + n));
    EXPECT_NEAR(back[i].imag(), x[i].imag(), 1e-8 * (1.0 + n));
  }
}

// Powers of two exercise radix-2; the rest exercise Bluestein, including
// primes (17, 97) and highly composite odd lengths.
INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16, 17, 30, 64,
                                           97, 100, 128, 255, 350));

TEST(FftTest, ImpulseHasFlatSpectrum) {
  std::vector<Complex> x(16, Complex(0, 0));
  x[0] = Complex(1, 0);
  for (const Complex& bin : Fft(x)) {
    EXPECT_NEAR(bin.real(), 1.0, 1e-10);
    EXPECT_NEAR(bin.imag(), 0.0, 1e-10);
  }
}

TEST(FftTest, PureSineConcentratesInOneBin) {
  const size_t n = 64;
  std::vector<double> x(n);
  for (size_t t = 0; t < n; ++t) {
    x[t] = std::sin(2.0 * kPi * 5.0 * static_cast<double>(t) /
                    static_cast<double>(n));
  }
  const std::vector<Complex> spec = RealFft(x);
  // Energy at bin 5 (and conjugate bin n-5), ~zero elsewhere.
  EXPECT_NEAR(std::abs(spec[5]), static_cast<double>(n) / 2.0, 1e-8);
  EXPECT_NEAR(std::abs(spec[59]), static_cast<double>(n) / 2.0, 1e-8);
  EXPECT_NEAR(std::abs(spec[4]), 0.0, 1e-8);
}

TEST(FftTest, ParsevalHolds) {
  const std::vector<Complex> x = RandomSignal(100, 3);
  const std::vector<Complex> spec = Fft(x);
  double time_energy = 0.0, freq_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / 100.0, time_energy, 1e-8 * time_energy + 1e-10);
}

TEST(FftTest, RealFftConjugateSymmetry) {
  Rng rng(9);
  std::vector<double> x(31);
  for (auto& v : x) v = rng.Normal();
  const std::vector<Complex> spec = RealFft(x);
  for (size_t k = 1; k < x.size(); ++k) {
    EXPECT_NEAR(spec[k].real(), spec[x.size() - k].real(), 1e-9);
    EXPECT_NEAR(spec[k].imag(), -spec[x.size() - k].imag(), 1e-9);
  }
}

TEST(FftTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1023), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024u);
}

TEST(FftTest, EmptyInput) { EXPECT_TRUE(Fft({}).empty()); }

}  // namespace
}  // namespace triad::signal
