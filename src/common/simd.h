#ifndef TRIAD_COMMON_SIMD_H_
#define TRIAD_COMMON_SIMD_H_

#include <cstdint>

namespace triad::simd {

/// \brief Instruction-set tiers the kernel layer can dispatch to.
///
/// The tier is chosen once at startup (see ActiveLevel) from what the CPU
/// supports and the `TRIAD_SIMD` environment variable:
///
///   TRIAD_SIMD=off | scalar   force the portable scalar path
///   TRIAD_SIMD=avx2           force AVX2+FMA (falls back to scalar if the
///                             CPU lacks it)
///   TRIAD_SIMD=auto | unset   highest tier the CPU supports
///
/// Determinism contract (see ARCHITECTURE.md §4):
///
///  * **Elementwise kernels** (Axpy, Add, Mul, Relu, SlidingDotUpdate,
///    ZNormDistRow, CorrRowMax, SlidingCorrMax) perform the exact same IEEE
///    operation sequence per element at every tier — vector lanes are just
///    scalar lanes side by side, and FMA contraction is never used — so
///    their output is **bit-identical** to the scalar reference.
///  * **Reduction kernels** (Dot, Sum) accumulate in double precision at
///    every tier; the vector tiers use a fixed-width lane split, so the
///    only divergence from the scalar reference is double-rounding of
///    reordered exact partials — within a few ULPs of the result, and
///    bit-stable run-to-run at a given tier.
///
/// Combined with the fixed chunking of common/parallel.h, results are
/// bit-identical across thread counts at any given tier.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,  ///< AVX2 + FMA (FMA used only where contraction is allowed)
};

/// Name for logs/benchmark labels ("scalar", "avx2").
const char* LevelName(Level level);

/// Highest tier this CPU can execute (ignores TRIAD_SIMD).
Level HighestSupportedLevel();

/// The tier kernels dispatch to: decided once from HighestSupportedLevel()
/// and TRIAD_SIMD, then cached; ScopedForceLevel overrides it.
Level ActiveLevel();

/// \brief RAII override of ActiveLevel() for the equivalence tests and the
/// scalar-vs-SIMD benches. Requests above HighestSupportedLevel() are
/// clamped. Overrides nest; install/remove from a single thread only (the
/// same discipline as ScopedDefaultPool).
class ScopedForceLevel {
 public:
  explicit ScopedForceLevel(Level level);
  ~ScopedForceLevel();

  ScopedForceLevel(const ScopedForceLevel&) = delete;
  ScopedForceLevel& operator=(const ScopedForceLevel&) = delete;

 private:
  int previous_;  // -1 = no override was active
};

// ---------------------------------------------------------------------------
// Reduction kernels (double accumulation; ≤ a few ULP across tiers).
// ---------------------------------------------------------------------------

/// sum_i a[i] * b[i], accumulated in double (float x float products are
/// exact in double, so tiers differ only by summation order).
double Dot(const float* a, const float* b, int64_t n);

/// sum_i x[i], accumulated in double.
double Sum(const float* x, int64_t n);

// ---------------------------------------------------------------------------
// Elementwise kernels (bit-identical across tiers).
// ---------------------------------------------------------------------------

/// y[i] += alpha * x[i] (separate round of the product and the add — no
/// FMA — so every tier matches the scalar reference bit for bit).
void Axpy(float alpha, const float* x, float* y, int64_t n);

/// out[i] = a[i] + b[i].
void Add(const float* a, const float* b, float* out, int64_t n);

/// out[i] = a[i] * b[i].
void Mul(const float* a, const float* b, float* out, int64_t n);

/// out[i] = max(x[i], 0) with the `x > 0 ? x : 0` branch semantics of the
/// scalar path (so relu(-0.0) = 0.0 and relu(NaN) = 0 at every tier).
void Relu(const float* x, float* out, int64_t n);

/// \brief In-place backward sliding-dot-product update shared by STOMP.
///
/// For j = n-1 down to 1:  qt[j] = qt[j-1] - drop * tail[j-1] + add * head[j-1]
/// (qt[0] is left untouched; the caller patches it from the symmetry row).
/// Each output element depends only on *pre-update* values, so the vector
/// tiers compute blocks top-down with the identical mul/sub/mul/add
/// sequence and stay bit-identical to the scalar loop.
void SlidingDotUpdate(double* qt, int64_t n, double drop, const double* tail,
                      double add, const double* head);

/// \brief Fused multi-tap row accumulation — the inner kernel of Conv1d
/// forward and the dense matmul.
///
///   orow[l] += sum_{ci, t} w[ci*taps + t] * x[ci*xstride + l + t*dilation]
///
/// applied per element in (ci, t) order with a separate round of each
/// product and add (no FMA). That per-element chain is exactly what the
/// one-axpy-per-tap formulation produces, so all tiers are bit-identical
/// to the scalar reference; the vector tiers just keep a register block of
/// `orow` live across all cin*taps terms instead of re-reading the row per
/// tap. Taps whose weight is exactly 0.0f are skipped at every tier.
/// `x` and `orow` must not alias. A dense matmul row is the degenerate
/// conv: taps = 1, dilation = 0, xstride = row stride of the B matrix.
void ConvRowAccum(const float* x, int64_t xstride, const float* w,
                  int64_t cin, int64_t taps, int64_t dilation, float* orow,
                  int64_t lout);

/// \brief All `taps` shifted dot products of one window against one
/// gradient row — the inner kernel of nn::kernels::Conv1dBackwardWeight.
///
///   out[t] = sum_l x[l + t*dilation] * g[l],  t in [0, taps)
///
/// Each tap accumulates in double with exactly Dot's per-tap operation
/// chain (same lane split, same fold, same scalar tail), so every out[t]
/// is bit-identical to a separate Dot(x + t*dilation, g, lout) call at the
/// same tier; the fusion just loads each g block once for all taps instead
/// of once per tap. `taps` must be in [1, 8].
void ConvTapDots(const float* x, const float* g, int64_t taps,
                 int64_t dilation, int64_t lout, double* out);

/// \brief Fused multi-tap *scatter* row accumulation — the inner kernel of
/// nn::kernels::Conv1dBackwardInput (the adjoint of ConvRowAccum).
///
///   drow[l + t*dilation] += w[co*wstride + t] * g[co*gstride + l]
///
/// for all co in [0, cout), t in [0, taps), l in [0, lout); `drow` has
/// lout + (taps-1)*dilation elements. Per element the (co, t) terms apply
/// in ascending order with a separate round of each product and add (no
/// FMA) and zero weights skipped — exactly the chain the one-axpy-per-tap
/// formulation produces — so all tiers are bit-identical to the scalar
/// reference. The vector tiers keep a register block of the interior of
/// `drow` live across all cout*taps terms; the (taps-1)*dilation edge
/// elements on each side fall back to per-tap partial passes in the same
/// (co, t) order. `g` and `drow` must not alias.
void CorrRowAccum(const float* g, int64_t gstride, const float* w,
                  int64_t wstride, int64_t cout, int64_t taps,
                  int64_t dilation, float* drow, int64_t lout);

/// \brief Two dot products sharing the left operand: out2[0] = Dot(a, b0, n),
/// out2[1] = Dot(a, b1, n), with each accumulated in Dot's exact per-column
/// chain (bit-identical to two separate Dot calls at the same tier). The
/// fusion halves the `a` loads — the win of nn::kernels::GemmTransB.
void DotPair(const float* a, const float* b0, const float* b1, int64_t n,
             double* out2);

/// out[i] = relu(a[i] + b[i]) with Relu's branch semantics — one pass over
/// the operands instead of an Add pass plus a Relu pass.
void AddRelu(const float* a, const float* b, float* out, int64_t n);

/// out[i] = (a[i] + b[i]) > 0 ? g[i] : 0 — the relu gradient mask of a
/// fused add+relu, recomputed from the saved operands in one pass.
void AddReluMask(const float* a, const float* b, const float* g, float* out,
                 int64_t n);

/// out[i] = x[i] > 0 ? g[i] : 0 — the relu gradient mask against the saved
/// input (NaN inputs mask to 0, matching the scalar branch).
void ReluMask(const float* x, const float* g, float* out, int64_t n);

/// \brief Z-normalized distance row shared by MASS and STOMP.
///
/// Given sliding dot products `dot[j]` of a fixed query subsequence
/// (mean mu_q, stddev sd_q, length m) against window j (mean mu[j], stddev
/// sd[j]):
///
///   corr[j] = (dot[j] - (m*mu_q)*mu[j]) / ((m*sd_q)*sd[j])
///   out[j]  = sqrt(max(0, 2m * (1 - clamp(corr[j], -1, 1))))
///
/// Flat guards: any stddev < 1e-12 yields +inf (the pair has no defined
/// z-normalized distance; downstream consumers exclude it via isfinite), or
/// 0 when both sides are flat. Division and sqrt are correctly rounded IEEE
/// ops, so vector tiers are bit-identical to the scalar reference.
void ZNormDistRow(const double* dot, const double* mu, const double* sd,
                  double mu_q, double sd_q, int64_t m, double* out, int64_t n);

/// \brief One row of the exact discord sweep (discord::ExactDiscords):
/// ranks row i against its upper-triangle partners by Pearson correlation,
/// then advances the diagonal-major dot row to row i+1.
///
/// Cell k pairs row i with column j = i+m+k; `q[k]` holds their sliding
/// dot product, `mu[k]`/`inv_sd[k]` the column's mean and 1/stddev. Per
/// cell, in this order:
///
///   corr       = ((q[k] * inv_m - mu_row * mu[k]) * inv_sd[k]) * inv_sd_row
///   row max    = corr > row max ? corr : row max
///   col_max[k] = corr > col_max[k] ? corr : col_max[k]
///   q[k]       = q[k] - drop * tail[k] + add * head[k]
///
/// No sqrt or division per cell. A flat window carries NaN in its
/// 1/stddev, so its correlations are NaN and never win a max (the `a > b ?
/// a : b` rule keeps b, which is also vmaxpd's NaN rule). Returns the row
/// maximum, seeded at -inf, with +0.0 added so a zero maximum has one sign
/// at every tier. Elementwise with no FMA, so every tier is bit-identical
/// to the scalar reference.
double CorrRowMax(double* q, int64_t n, double inv_m, double mu_row,
                  double inv_sd_row, const double* mu, const double* inv_sd,
                  double* col_max, double drop, const double* tail,
                  double add, const double* head);

/// \brief Best scaled sliding dot of one query against every window of a
/// series — the scan behind discord::NearestWindowIndex.
///
///   returns max over i in [0, n) of (sum_{k<m} q[k] * x[i+k]) * inv_sd[i]
///
/// `x` holds n + m - 1 values. Each window's dot starts at 0.0 and adds
/// q[k] * x[i+k] with k ascending, product and sum rounded separately (no
/// FMA); the vector tier runs the same chain for several windows side by
/// side. A flat window carries NaN in `inv_sd`, so its entry is NaN and
/// never wins the max (the `a > b ? a : b` rule keeps b, which is also
/// vmaxpd's NaN rule); with no non-NaN entry the result is -inf. +0.0 is
/// added to the result so a zero maximum has one sign at every tier.
/// Elementwise, so every tier is bit-identical to the scalar reference.
double SlidingCorrMax(const double* q, int64_t m, const double* x,
                      const double* inv_sd, int64_t n);

// ---------------------------------------------------------------------------
// Scalar reference implementations, exported for the equivalence tests and
// as the dispatch targets of the kScalar tier.
// ---------------------------------------------------------------------------
namespace scalar {
double Dot(const float* a, const float* b, int64_t n);
double Sum(const float* x, int64_t n);
void Axpy(float alpha, const float* x, float* y, int64_t n);
void Add(const float* a, const float* b, float* out, int64_t n);
void Mul(const float* a, const float* b, float* out, int64_t n);
void Relu(const float* x, float* out, int64_t n);
void ConvRowAccum(const float* x, int64_t xstride, const float* w,
                  int64_t cin, int64_t taps, int64_t dilation, float* orow,
                  int64_t lout);
void ConvTapDots(const float* x, const float* g, int64_t taps,
                 int64_t dilation, int64_t lout, double* out);
void CorrRowAccum(const float* g, int64_t gstride, const float* w,
                  int64_t wstride, int64_t cout, int64_t taps,
                  int64_t dilation, float* drow, int64_t lout);
void DotPair(const float* a, const float* b0, const float* b1, int64_t n,
             double* out2);
void AddRelu(const float* a, const float* b, float* out, int64_t n);
void AddReluMask(const float* a, const float* b, const float* g, float* out,
                 int64_t n);
void ReluMask(const float* x, const float* g, float* out, int64_t n);
void SlidingDotUpdate(double* qt, int64_t n, double drop, const double* tail,
                      double add, const double* head);
void ZNormDistRow(const double* dot, const double* mu, const double* sd,
                  double mu_q, double sd_q, int64_t m, double* out, int64_t n);
double CorrRowMax(double* q, int64_t n, double inv_m, double mu_row,
                  double inv_sd_row, const double* mu, const double* inv_sd,
                  double* col_max, double drop, const double* tail,
                  double add, const double* head);
double SlidingCorrMax(const double* q, int64_t m, const double* x,
                      const double* inv_sd, int64_t n);
}  // namespace scalar

}  // namespace triad::simd

#endif  // TRIAD_COMMON_SIMD_H_
