#ifndef TRIAD_SIGNAL_FFT_PLAN_H_
#define TRIAD_SIGNAL_FFT_PLAN_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "signal/fft.h"

namespace triad::signal {

/// \brief Precomputed tables for a DFT of one fixed size
/// (see ARCHITECTURE.md §7).
///
/// A plan caches everything about a transform that depends only on its
/// length: the bit-reversal permutation, the per-stage twiddle sequences
/// (one set per direction), and — for non-power-of-two sizes — the
/// Bluestein chirp vectors plus the forward transform of the chirp
/// convolution kernel (`b`-spectrum), again per direction.
///
/// **Bit-identity contract:** a planned transform performs the *exact same
/// IEEE operation sequence* as a from-scratch radix-2 / Bluestein
/// transform (the oracle in tests/fft_plan_test.cc). The cached twiddles
/// are produced by the same incremental `w *= wlen` recurrence the
/// from-scratch butterfly loop runs (per stage, restarting from (1, 0)),
/// the cached chirp/b-spectrum come from the same construction, and the
/// butterfly/multiply/scale arithmetic is unchanged — so outputs are
/// bit-for-bit equal to the oracle's. Forward and inverse twiddles are
/// tabulated independently (never derived by conjugation) so no libm
/// symmetry assumption is needed.
///
/// Plans are immutable after construction and safe to share across
/// threads; per-call scratch lives in thread-local buffers.
class FftPlan {
 public:
  explicit FftPlan(size_t n);

  size_t size() const { return n_; }

  /// Forward DFT, in place. data->size() must equal size().
  void Forward(std::vector<Complex>* data) const;

  /// Inverse DFT *without* the 1/N normalization (the caller scales). In
  /// place.
  void InverseUnnormalized(std::vector<Complex>* data) const;

 private:
  void BuildTwiddles(int sign, std::vector<Complex>* out) const;
  void BuildBluestein(int sign, std::vector<Complex>* chirp,
                      std::vector<Complex>* bspec) const;
  void TransformPow2(Complex* a, int sign) const;
  void TransformBluestein(std::vector<Complex>* data, int sign) const;

  size_t n_ = 0;      ///< logical transform size
  bool pow2_ = true;  ///< radix-2 directly, or Bluestein via size m_
  size_t m_ = 0;      ///< power-of-two workhorse size (== n_ when pow2_)

  // Radix-2 tables for size m_.
  std::vector<std::pair<uint32_t, uint32_t>> swaps_;  ///< bit-reversal i<j
  std::vector<Complex> fwd_twiddles_;  ///< stages concatenated, sign = -1
  std::vector<Complex> inv_twiddles_;  ///< stages concatenated, sign = +1

  // Bluestein tables (empty when pow2_). chirp_*[k] = exp(sign*i*pi*k^2/n);
  // bspec_* is the forward FFT of the padded conjugate-chirp kernel.
  std::vector<Complex> chirp_fwd_, bspec_fwd_;
  std::vector<Complex> chirp_inv_, bspec_inv_;
};

/// \brief The process-global plan cache, keyed by transform size.
///
/// Thread-safe: pool workers hit it concurrently during the MERLIN length
/// sweep and the detector's candidate scans. The first request for a size
/// builds the plan under the cache mutex (a one-time cost per size);
/// every later request is a lookup. Returned plans are immutable and live
/// as long as any caller holds the shared_ptr. Hit/miss counts are exported
/// as the `fft.plan_hits` / `fft.plan_misses` registry counters.
std::shared_ptr<const FftPlan> GetFftPlan(size_t n);

}  // namespace triad::signal

#endif  // TRIAD_SIGNAL_FFT_PLAN_H_
