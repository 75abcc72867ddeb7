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
///  * **Elementwise kernels** (Axpy, Add, Mul, Relu, ConvRowsAccum,
///    CorrRowsAccum, SlidingDotUpdate, ZNormDistRow, CorrRowMax,
///    ZNormDistEarlyAbandon4, SlidingCorrMax) perform the exact same IEEE
///    operation sequence per element at every tier — vector lanes are just
///    scalar lanes side by side, and FMA contraction is never used — so
///    their output is **bit-identical** to the scalar reference. The
///    scalar tier of each is the plain per-term loop that defines its
///    chain; the vector tier blocks independent outputs and, where it runs
///    a term an output skips, adds -0.0f, which leaves every float
///    unchanged.
///  * **Reduction kernels** (Dot, Sum, ConvTapDotTile) accumulate in double
///    precision at every tier; the vector tiers use a fixed-width lane
///    split, so the only divergence from the scalar reference is
///    double-rounding of reordered exact partials — within a few ULPs of
///    the result, and bit-stable run-to-run at a given tier.
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

/// Output rows the vector tier's multi-row primitives (ConvRowsAccum,
/// CorrRowsAccum) hold in registers at once. Callers that fan rows across a
/// pool split them in multiples of it so no block is cut short; the results
/// never depend on the split.
inline constexpr int64_t kRowBlock = 4;

/// \brief Multi-row fused multi-tap accumulation — the inner kernel of
/// Conv1d forward and of the dense matmuls (Gemm, GemmTransA).
///
///   out[r*ostride + l] += sum_{ci, t} w[r*wrow + (ci*taps + t)*wterm]
///                                     * x[ci*xstride + t*dilation + l]
///
/// for r in [0, rows), l in [0, lout). Per output element the terms apply
/// in (ci, t) order with a separate round of each product and add (no
/// FMA), and a term whose weight is exactly 0.0f is skipped: the chain of
/// the plain per-term loop, which is the scalar tier. The vector tier
/// blocks kRowBlock rows over 16 output columns, so each input load feeds
/// every row of the block, and runs the Lout % 8 tail as one masked vector.
/// Its term loop has no data-dependent branch: the block's terms are
/// listed once per call (dropping terms every row skips), and a row that
/// skips a listed term adds -0.0f in its place, which leaves every float —
/// ±0, ±inf, NaN — unchanged. All tiers are therefore bit-identical.
/// A dense matmul row is the degenerate conv (taps = 1, dilation = 0,
/// xstride = row stride of B); `wterm` = m reads A's columns in place
/// for GemmTransA. `x` and `out` must not alias.
void ConvRowsAccum(const float* x, int64_t xstride, const float* w,
                   int64_t wrow, int64_t wterm, int64_t cin, int64_t taps,
                   int64_t dilation, float* out, int64_t ostride, int64_t rows,
                   int64_t lout);

/// \brief Multi-row fused multi-tap *scatter* accumulation — the inner
/// kernel of nn::kernels::Conv1dBackwardInput (the adjoint of
/// ConvRowsAccum).
///
///   d[r*dstride + l + t*dilation] += w[r*wrow + co*wstride + t]
///                                    * g[co*gstride + l]
///
/// for r in [0, rows), co in [0, cout), t in [0, taps), l in [0, lout);
/// each `d` row has lout + (taps-1)*dilation elements. Per element the
/// (co, t) terms apply in ascending order with a separate round of each
/// product and add (no FMA), zero weights skipped and out-of-range terms
/// left out — the chain of one axpy pass per nonzero term, which is the
/// scalar tier. The vector tier blocks kRowBlock rows over the row, so
/// each gradient load feeds every row of the block; blocks that reach the
/// (taps-1)*dilation edges or the row's end mask their loads and add
/// -0.0f for an out-of-range term, exactly as for a skipped weight. All
/// tiers are bit-identical. `g` and `d` must not alias.
void CorrRowsAccum(const float* g, int64_t gstride, const float* w,
                   int64_t wrow, int64_t wstride, int64_t cout, int64_t taps,
                   int64_t dilation, float* d, int64_t dstride, int64_t rows,
                   int64_t lout);

/// \brief A tile of shifted dot products — the inner kernel of
/// nn::kernels::Conv1dBackwardWeight and (taps = 1) of GemmTransB.
///
///   out[r*taps + t] = Dot(x + t*dilation, g + r*gstride, lout)
///
/// for r in [0, rows), t in [0, taps). Each dot keeps Dot's exact chain at
/// the same tier — same lane split, HSum4(lo) + HSum4(hi) fold, then the
/// ascending scalar tail — so every out element is bit-identical to a
/// separate Dot call. The vector tier converts each window of `x` once
/// for every gradient row of its register tile and each block of a
/// gradient row once for every tap, folds four dots per vector and runs
/// four dots' tails side by side. `taps` must be in [1, 8].
void ConvTapDotTile(const float* x, const float* g, int64_t gstride,
                    int64_t rows, int64_t taps, int64_t dilation,
                    int64_t lout, double* out);

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

/// \brief Four early-abandoning z-normalized distances from one window to
/// four consecutive ones — the exact re-score of discord::ExactDiscords'
/// confirm step.
///
/// Lane l pairs the length-m window `a` (mean mu_a, 1/stddev inv_a) with
/// the window starting at b + l (mean mu_b[l], 1/stddev inv_b[l]). With
/// inv = 1.0 / sd, out[l] equals discord::ZNormDistanceEarlyAbandon(a,
/// mu_a, sd_a, b + l, mu_b[l], sd_b[l], m, limit) bit for bit. Per lane
/// and term t, in this order:
///
///   d   = (a[t] - mu_a) * inv_a - (b[l + t] - mu_b[l]) * inv_b[l]
///   acc = acc + d * d        (product and sum rounded separately)
///
/// A lane stops at the first term where acc > limit * limit and returns
/// sqrt(acc); a lane that never stops returns sqrt of the full sum. NaN in
/// an inv marks a flat window (sd < 1e-12), so no caller divides by a zero
/// stddev: two flat windows are at 0, a flat and a non-flat one at +inf.
/// All four lanes share `limit`. The scalar tier is the per-lane loop; the
/// vector tier runs the lanes side by side until every lane has stopped,
/// with no FMA, so every tier is bit-identical.
void ZNormDistEarlyAbandon4(const double* a, double mu_a, double inv_a,
                            const double* b, const double* mu_b,
                            const double* inv_b, int64_t m, double limit,
                            double* out);

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
void ConvRowsAccum(const float* x, int64_t xstride, const float* w,
                   int64_t wrow, int64_t wterm, int64_t cin, int64_t taps,
                   int64_t dilation, float* out, int64_t ostride, int64_t rows,
                   int64_t lout);
void CorrRowsAccum(const float* g, int64_t gstride, const float* w,
                   int64_t wrow, int64_t wstride, int64_t cout, int64_t taps,
                   int64_t dilation, float* d, int64_t dstride, int64_t rows,
                   int64_t lout);
void ConvTapDotTile(const float* x, const float* g, int64_t gstride,
                    int64_t rows, int64_t taps, int64_t dilation,
                    int64_t lout, double* out);
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
void ZNormDistEarlyAbandon4(const double* a, double mu_a, double inv_a,
                            const double* b, const double* mu_b,
                            const double* inv_b, int64_t m, double limit,
                            double* out);
double SlidingCorrMax(const double* q, int64_t m, const double* x,
                      const double* inv_sd, int64_t n);
}  // namespace scalar

}  // namespace triad::simd

#endif  // TRIAD_COMMON_SIMD_H_
