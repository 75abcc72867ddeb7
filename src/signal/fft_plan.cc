#include "signal/fft_plan.h"

#include <cmath>
#include <mutex>
#include <unordered_map>

#include "common/check.h"
#include "common/metrics.h"

namespace triad::signal {
namespace {

constexpr double kPi = 3.14159265358979323846;

bool IsPowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

}  // namespace

FftPlan::FftPlan(size_t n) : n_(n) {
  TRIAD_CHECK(n >= 1);
  pow2_ = IsPowerOfTwo(n_);
  m_ = pow2_ ? n_ : NextPowerOfTwo(2 * n_ - 1);

  // Bit-reversal permutation of the reference loop, recorded as the swap
  // pairs it performs (in the same order; order is irrelevant for a
  // permutation of disjoint transpositions but kept anyway).
  for (size_t i = 1, j = 0; i < m_; ++i) {
    size_t bit = m_ >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      swaps_.emplace_back(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
    }
  }

  BuildTwiddles(-1, &fwd_twiddles_);
  BuildTwiddles(+1, &inv_twiddles_);
  if (!pow2_) {
    BuildBluestein(-1, &chirp_fwd_, &bspec_fwd_);
    BuildBluestein(+1, &chirp_inv_, &bspec_inv_);
  }
}

// The twiddle value the reference butterfly sees at (stage len, column j)
// is w after j applications of `w *= wlen` starting from (1, 0) — the same
// recurrence, run once here instead of once per block per call, keeps the
// cached table bit-identical to the on-the-fly sequence.
void FftPlan::BuildTwiddles(int sign, std::vector<Complex>* out) const {
  out->clear();
  out->reserve(m_ > 0 ? m_ - 1 : 0);
  for (size_t len = 2; len <= m_; len <<= 1) {
    const double angle = sign * 2.0 * kPi / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    Complex w(1.0, 0.0);
    for (size_t j = 0; j < len / 2; ++j) {
      out->push_back(w);
      w *= wlen;
    }
  }
}

// Chirp and b-spectrum construction of the reference FftBluestein, hoisted
// verbatim: chirp_k = exp(sign*i*pi*k^2/n) (k^2 mod 2n keeps the argument
// small), b = padded conjugate chirp made circularly symmetric, bspec =
// forward radix-2 FFT of b.
void FftPlan::BuildBluestein(int sign, std::vector<Complex>* chirp,
                             std::vector<Complex>* bspec) const {
  chirp->resize(n_);
  for (size_t k = 0; k < n_; ++k) {
    const uintmax_t k2 = (static_cast<uintmax_t>(k) * k) % (2 * n_);
    const double angle =
        sign * kPi * static_cast<double>(k2) / static_cast<double>(n_);
    (*chirp)[k] = Complex(std::cos(angle), std::sin(angle));
  }

  std::vector<Complex> b(m_, Complex(0, 0));
  b[0] = std::conj((*chirp)[0]);
  for (size_t k = 1; k < n_; ++k) {
    b[k] = std::conj((*chirp)[k]);
    b[m_ - k] = b[k];
  }
  TransformPow2(b.data(), -1);
  *bspec = std::move(b);
}

// The reference radix-2 butterfly with the permutation and twiddles read
// from the tables; identical operation sequence per element.
void FftPlan::TransformPow2(Complex* a, int sign) const {
  if (m_ <= 1) return;
  for (const auto& [i, j] : swaps_) std::swap(a[i], a[j]);

  const std::vector<Complex>& tw = sign < 0 ? fwd_twiddles_ : inv_twiddles_;
  size_t offset = 0;
  for (size_t len = 2; len <= m_; len <<= 1) {
    const size_t half = len / 2;
    const Complex* w = tw.data() + offset;
    for (size_t i = 0; i < m_; i += len) {
      for (size_t j = 0; j < half; ++j) {
        const Complex u = a[i + j];
        const Complex v = a[i + j + half] * w[j];
        a[i + j] = u + v;
        a[i + j + half] = u - v;
      }
    }
    offset += half;
  }
}

void FftPlan::TransformBluestein(std::vector<Complex>* data, int sign) const {
  const std::vector<Complex>& chirp = sign < 0 ? chirp_fwd_ : chirp_inv_;
  const std::vector<Complex>& bspec = sign < 0 ? bspec_fwd_ : bspec_inv_;

  // Reused per worker: plans are shared across threads, so the convolution
  // scratch cannot live in the (immutable) plan itself.
  thread_local std::vector<Complex> a;
  a.assign(m_, Complex(0, 0));
  for (size_t k = 0; k < n_; ++k) a[k] = (*data)[k] * chirp[k];

  TransformPow2(a.data(), -1);
  for (size_t i = 0; i < m_; ++i) a[i] *= bspec[i];
  TransformPow2(a.data(), +1);
  const double inv_m = 1.0 / static_cast<double>(m_);

  for (size_t k = 0; k < n_; ++k) (*data)[k] = a[k] * inv_m * chirp[k];
}

void FftPlan::Forward(std::vector<Complex>* data) const {
  TRIAD_CHECK(data->size() == n_);
  if (pow2_) {
    TransformPow2(data->data(), -1);
  } else {
    TransformBluestein(data, -1);
  }
}

void FftPlan::InverseUnnormalized(std::vector<Complex>* data) const {
  TRIAD_CHECK(data->size() == n_);
  if (pow2_) {
    TransformPow2(data->data(), +1);
  } else {
    TransformBluestein(data, +1);
  }
}

std::shared_ptr<const FftPlan> GetFftPlan(size_t n) {
  static metrics::Counter* hits_counter =
      metrics::Registry::Global().counter("fft.plan_hits");
  static metrics::Counter* misses_counter =
      metrics::Registry::Global().counter("fft.plan_misses");

  // Leaked like the metrics registry: plans handed out must stay valid for
  // the process lifetime even during static destruction.
  static std::mutex* mu = new std::mutex;
  static auto* cache =
      new std::unordered_map<size_t, std::shared_ptr<const FftPlan>>();

  std::lock_guard<std::mutex> lock(*mu);
  auto it = cache->find(n);
  if (it != cache->end()) {
    hits_counter->Increment();
    return it->second;
  }
  misses_counter->Increment();
  // Built under the lock: a one-time O(n log n) cost per distinct size,
  // and concurrent first requests for the same size must not duplicate it.
  auto plan = std::make_shared<const FftPlan>(n);
  (*cache)[n] = plan;
  return plan;
}

}  // namespace triad::signal
