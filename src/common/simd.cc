#include "common/simd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/env.h"

// This translation unit is compiled with -ffp-contract=off (see
// common/CMakeLists.txt): the compiler must not fuse the written mul/add
// sequences into FMAs behind our back, or the elementwise kernels would
// stop being bit-identical across tiers. The vector tiers below only use
// explicit FMA intrinsics where fusion is provably exact (float products
// accumulated in double).
#if defined(__GNUC__) && defined(__x86_64__)
#define TRIAD_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#else
#define TRIAD_SIMD_HAVE_AVX2 0
#endif

namespace triad::simd {

// ---------------------------------------------------------------------------
// Scalar reference tier.
// ---------------------------------------------------------------------------
namespace scalar {

double Dot(const float* a, const float* b, int64_t n) {
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

double Sum(const float* x, int64_t n) {
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) acc += static_cast<double>(x[i]);
  return acc;
}

void Axpy(float alpha, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Add(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void Mul(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void Relu(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void ConvRowsAccum(const float* x, int64_t xstride, const float* w,
                   int64_t wrow, int64_t wterm, int64_t cin, int64_t taps,
                   int64_t dilation, float* out, int64_t ostride, int64_t rows,
                   int64_t lout) {
  // One axpy pass per nonzero term: per element the terms apply in (ci, t)
  // order — the chain the vector tier reproduces in registers.
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t ci = 0; ci < cin; ++ci) {
      for (int64_t t = 0; t < taps; ++t) {
        const float wv = w[r * wrow + (ci * taps + t) * wterm];
        if (wv == 0.0f) continue;
        Axpy(wv, x + ci * xstride + t * dilation, out + r * ostride, lout);
      }
    }
  }
}

void CorrRowsAccum(const float* g, int64_t gstride, const float* w,
                   int64_t wrow, int64_t wstride, int64_t cout, int64_t taps,
                   int64_t dilation, float* d, int64_t dstride, int64_t rows,
                   int64_t lout) {
  // One axpy pass per nonzero (co, t) term: per element the terms apply in
  // (co, t) order — the chain the vector tier reproduces in registers.
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t co = 0; co < cout; ++co) {
      const float* grow = g + co * gstride;
      for (int64_t t = 0; t < taps; ++t) {
        const float wv = w[r * wrow + co * wstride + t];
        if (wv == 0.0f) continue;
        Axpy(wv, grow, d + r * dstride + t * dilation, lout);
      }
    }
  }
}

void ConvTapDotTile(const float* x, const float* g, int64_t gstride,
                    int64_t rows, int64_t taps, int64_t dilation,
                    int64_t lout, double* out) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t t = 0; t < taps; ++t) {
      out[r * taps + t] = Dot(x + t * dilation, g + r * gstride, lout);
    }
  }
}

void AddRelu(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float s = a[i] + b[i];
    out[i] = s > 0.0f ? s : 0.0f;
  }
}

void AddReluMask(const float* a, const float* b, const float* g, float* out,
                 int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = (a[i] + b[i]) > 0.0f ? g[i] : 0.0f;
  }
}

void ReluMask(const float* x, const float* g, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] > 0.0f ? g[i] : 0.0f;
}

void SlidingDotUpdate(double* qt, int64_t n, double drop, const double* tail,
                      double add, const double* head) {
  for (int64_t j = n - 1; j >= 1; --j) {
    qt[j] = qt[j - 1] - drop * tail[j - 1] + add * head[j - 1];
  }
}

void ZNormDistRow(const double* dot, const double* mu, const double* sd,
                  double mu_q, double sd_q, int64_t m, double* out,
                  int64_t n) {
  const double dm = static_cast<double>(m);
  // Zero-variance guard: a flat window has no z-normalized shape, so its
  // distance to any non-flat subsequence is +inf — a sentinel every
  // downstream consumer (discord ranking, matrix-profile argmin) excludes
  // via isfinite, so constant segments cannot poison the profile.
  const double flat_dist = std::numeric_limits<double>::infinity();
  const double two_m = 2.0 * dm;
  if (sd_q < 1e-12) {  // flat query: distance depends only on window flatness
    for (int64_t j = 0; j < n; ++j) {
      out[j] = sd[j] < 1e-12 ? 0.0 : flat_dist;
    }
    return;
  }
  const double c1 = dm * mu_q;
  const double c2 = dm * sd_q;
  for (int64_t j = 0; j < n; ++j) {
    if (sd[j] < 1e-12) {
      out[j] = flat_dist;
      continue;
    }
    const double corr = (dot[j] - c1 * mu[j]) / (c2 * sd[j]);
    const double clamped = std::min(std::max(corr, -1.0), 1.0);
    out[j] = std::sqrt(std::max(0.0, two_m * (1.0 - clamped)));
  }
}

double CorrRowMax(double* q, int64_t n, double inv_m, double mu_row,
                  double inv_sd_row, const double* mu, const double* inv_sd,
                  double* col_max, double drop, const double* tail,
                  double add, const double* head) {
  double row_max = -std::numeric_limits<double>::infinity();
  for (int64_t k = 0; k < n; ++k) {
    const double corr =
        ((q[k] * inv_m - mu_row * mu[k]) * inv_sd[k]) * inv_sd_row;
    row_max = corr > row_max ? corr : row_max;
    col_max[k] = corr > col_max[k] ? corr : col_max[k];
    q[k] = q[k] - drop * tail[k] + add * head[k];
  }
  return row_max + 0.0;
}

void ZNormDistEarlyAbandon4(const double* a, double mu_a, double inv_a,
                            const double* b, const double* mu_b,
                            const double* inv_b, int64_t m, double limit,
                            double* out) {
  const double threshold = limit * limit;
  for (int l = 0; l < 4; ++l) {
    if (std::isnan(inv_a) || std::isnan(inv_b[l])) {
      out[l] = std::isnan(inv_a) && std::isnan(inv_b[l])
                   ? 0.0
                   : std::numeric_limits<double>::infinity();
      continue;
    }
    double acc = 0.0;
    for (int64_t t = 0; t < m; ++t) {
      const double d = (a[t] - mu_a) * inv_a - (b[l + t] - mu_b[l]) * inv_b[l];
      acc += d * d;
      if (acc > threshold) break;
    }
    out[l] = std::sqrt(acc);
  }
}

double SlidingCorrMax(const double* q, int64_t m, const double* x,
                      const double* inv_sd, int64_t n) {
  double best = -std::numeric_limits<double>::infinity();
  for (int64_t i = 0; i < n; ++i) {
    double dot = 0.0;
    for (int64_t k = 0; k < m; ++k) dot = dot + q[k] * x[i + k];
    const double corr = dot * inv_sd[i];
    best = corr > best ? corr : best;
  }
  return best + 0.0;
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 + FMA tier.
// ---------------------------------------------------------------------------
#if TRIAD_SIMD_HAVE_AVX2
namespace avx2 {

#define TRIAD_TARGET_AVX2 __attribute__((target("avx2,fma")))

// Folds a 4-lane double accumulator in a fixed order: (l0+l1) + (l2+l3).
TRIAD_TARGET_AVX2 inline double HSum4(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

// float x float products are exact in double, so the FMA below rounds
// exactly once per add — the same as mul-then-add; lane split (even/odd
// 4-lane accumulators over 8-element blocks) is fixed, so the summation
// order never depends on n's alignment beyond the tail handling.
TRIAD_TARGET_AVX2 double Dot(const float* a, const float* b, int64_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 av = _mm256_loadu_ps(a + i);
    const __m256 bv = _mm256_loadu_ps(b + i);
    acc_lo = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(av)),
                             _mm256_cvtps_pd(_mm256_castps256_ps128(bv)),
                             acc_lo);
    acc_hi = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(av, 1)),
                             _mm256_cvtps_pd(_mm256_extractf128_ps(bv, 1)),
                             acc_hi);
  }
  double acc = HSum4(acc_lo) + HSum4(acc_hi);
  for (; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

TRIAD_TARGET_AVX2 double Sum(const float* x, int64_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    acc_lo = _mm256_add_pd(
        acc_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(xv)));
    acc_hi = _mm256_add_pd(
        acc_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(xv, 1)));
  }
  double acc = HSum4(acc_lo) + HSum4(acc_hi);
  for (; i < n; ++i) acc += static_cast<double>(x[i]);
  return acc;
}

// Elementwise kernels: separate mul and add (no FMA) keep every lane
// bit-identical to the scalar reference.
TRIAD_TARGET_AVX2 void Axpy(float alpha, const float* x, float* y,
                            int64_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(av, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

TRIAD_TARGET_AVX2 void Add(const float* a, const float* b, float* out,
                           int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

TRIAD_TARGET_AVX2 void Mul(const float* a, const float* b, float* out,
                           int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

TRIAD_TARGET_AVX2 void Relu(const float* x, float* out, int64_t n) {
  // vmaxps(x, 0) returns the second operand when x <= 0 or x is NaN,
  // matching the scalar `x > 0 ? x : 0` exactly (including -0.0 -> +0.0).
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

// ---- Multi-row accumulation: ConvRowsAccum and CorrRowsAccum ----
//
// Both primitives list a block of kRowBlock rows' terms once per call and
// then run a term loop with no data-dependent branch, kRowBlock rows x up
// to 16 columns of accumulators sharing every input load. Per element the
// op chain — mul, then add, listed terms in order — is the scalar tier's;
// a row that skips a listed term (zero weight, or out of range) adds
// -0.0f instead, which leaves the accumulator unchanged whatever it holds.

constexpr int kRows = static_cast<int>(kRowBlock);
constexpr int kTermChunk = 64;  // terms listed per pass over the rows

// Lanes [0, count) set; count >= 8 sets all eight.
TRIAD_TARGET_AVX2 inline __m256i LaneMask(int64_t count) {
  return _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(std::min<int64_t>(count, 8))),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// One chunk of a row block's terms in chain order. Per term: the input
// offset and the tap shift t*dilation; per row: the weight and a keep
// mask (all ones, or zero where the row skips the term). Rows past the
// block's end repeat its last row; their accumulators are never stored.
struct TermTable {
  int64_t off[kTermChunk];
  int64_t shift[kTermChunk];
  alignas(32) float w[kTermChunk][kRows];
  alignas(32) float keep[kTermChunk][kRows];
  int count;
  bool skips;  // some listed term is skipped by some row of the block
};

// Lists terms [j0, j1), j = ci*taps + t, of the row block whose weights
// start at `w`: row r's weight is w[r*wrow + ci*wci + t*wt] and the input
// offset is ci*xci + t*xt. Terms no row keeps are left out, branch-free.
// Rows past nrows read the last row's weights, so they change neither
// which terms are listed nor `skips`.
TRIAD_TARGET_AVX2 inline void BuildTermTable(
    const float* w, int64_t wrow, int64_t wci, int64_t wt, int64_t xci,
    int64_t xt, int64_t taps, int64_t dilation, int nrows, int64_t j0,
    int64_t j1, TermTable* tt) {
  static_assert(kRows == 4, "one SSE vector of weights per term");
  const float* wr[kRows];
  for (int r = 0; r < kRows; ++r) wr[r] = w + std::min(r, nrows - 1) * wrow;
  const __m128 zero = _mm_setzero_ps();
  int count = 0;
  int mixed = 0;
  int64_t ci = j0 / taps, t = j0 % taps;
  for (int64_t j = j0; j < j1; ++j) {
    const int64_t woff = ci * wci + t * wt;
    tt->off[count] = ci * xci + t * xt;
    tt->shift[count] = t * dilation;
    const __m128 wv =
        _mm_setr_ps(wr[0][woff], wr[1][woff], wr[2][woff], wr[3][woff]);
    // NEQ is unordered: a NaN weight is kept, as `w == 0.0f` is false.
    const __m128 keep = _mm_cmpneq_ps(wv, zero);
    _mm_store_ps(tt->w[count], wv);
    _mm_store_ps(tt->keep[count], keep);
    const int bits = _mm_movemask_ps(keep);
    mixed |= bits != 0 && bits != 0xF;
    count += bits != 0;
    if (++t == taps) {
      t = 0;
      ++ci;
    }
  }
  tt->count = count;
  tt->skips = mixed != 0;
}

// Adds the listed terms into rows[r][l, l + 8*kVecs) for r < nrows, input
// x[off + l, ...). kTail masks the last vector to the lanes in `tail`.
// kSkips = false when every row keeps every listed term.
template <bool kSkips, int kVecs, bool kTail>
TRIAD_TARGET_AVX2 inline void ApplyTerms(const TermTable& tt, const float* x,
                                         int64_t l, float* const* rows,
                                         int nrows, __m256i tail) {
  const __m256 neg_zero = _mm256_set1_ps(-0.0f);
  constexpr int kLast = kVecs - 1;
  __m256 acc[kRows][kVecs];
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      if (r >= nrows) {
        acc[r][v] = _mm256_setzero_ps();
      } else if (kTail && v == kLast) {
        acc[r][v] = _mm256_maskload_ps(rows[r] + l + 8 * v, tail);
      } else {
        acc[r][v] = _mm256_loadu_ps(rows[r] + l + 8 * v);
      }
    }
  }
  for (int e = 0; e < tt.count; ++e) {
    const float* xs = x + (tt.off[e] + l);
    __m256 xv[kVecs];
    for (int v = 0; v < kVecs; ++v) {
      xv[v] = kTail && v == kLast ? _mm256_maskload_ps(xs + 8 * v, tail)
                                  : _mm256_loadu_ps(xs + 8 * v);
    }
    for (int r = 0; r < kRows; ++r) {
      const __m256 wv = _mm256_broadcast_ss(&tt.w[e][r]);
      __m256 keep = neg_zero, fill = neg_zero;
      if constexpr (kSkips) {
        keep = _mm256_broadcast_ss(&tt.keep[e][r]);
        fill = _mm256_andnot_ps(keep, neg_zero);
      }
      for (int v = 0; v < kVecs; ++v) {
        __m256 p = _mm256_mul_ps(wv, xv[v]);
        if constexpr (kSkips) p = _mm256_or_ps(_mm256_and_ps(p, keep), fill);
        acc[r][v] = _mm256_add_ps(acc[r][v], p);
      }
    }
  }
  // Constant trip counts, so `acc` stays in registers.
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      if (r >= nrows) {
        continue;
      } else if (kTail && v == kLast) {
        _mm256_maskstore_ps(rows[r] + l + 8 * v, tail, acc[r][v]);
      } else {
        _mm256_storeu_ps(rows[r] + l + 8 * v, acc[r][v]);
      }
    }
  }
}

// Columns [l, end) of the rows: 16-wide blocks, then the last 1..15
// columns as one pass whose last vector is masked.
template <bool kSkips>
TRIAD_TARGET_AVX2 void ApplyColumns(const TermTable& tt, const float* x,
                                    int64_t l, int64_t end, float* const* rows,
                                    int nrows) {
  const __m256i none = _mm256_setzero_si256();
  for (; l + 16 <= end; l += 16) {
    ApplyTerms<kSkips, 2, false>(tt, x, l, rows, nrows, none);
  }
  const int64_t rest = end - l;
  if (rest > 8) {
    ApplyTerms<kSkips, 2, true>(tt, x, l, rows, nrows, LaneMask(rest - 8));
  } else if (rest > 0) {
    ApplyTerms<kSkips, 1, true>(tt, x, l, rows, nrows, LaneMask(rest));
  }
}

TRIAD_TARGET_AVX2 void ConvRowsAccum(const float* x, int64_t xstride,
                                     const float* w, int64_t wrow,
                                     int64_t wterm, int64_t cin, int64_t taps,
                                     int64_t dilation, float* out,
                                     int64_t ostride, int64_t rows,
                                     int64_t lout) {
  const int64_t terms = cin * taps;
  TermTable tt;
  for (int64_t r0 = 0; r0 < rows; r0 += kRows) {
    const int nrows = static_cast<int>(std::min<int64_t>(kRows, rows - r0));
    float* orows[kRows];
    for (int r = 0; r < kRows; ++r) {
      orows[r] = out + (r0 + std::min(r, nrows - 1)) * ostride;
    }
    for (int64_t j0 = 0; j0 < terms; j0 += kTermChunk) {
      BuildTermTable(w + r0 * wrow, wrow, taps * wterm, wterm, xstride,
                     dilation, taps, dilation, nrows, j0,
                     std::min(terms, j0 + kTermChunk), &tt);
      if (tt.skips) {
        ApplyColumns<true>(tt, x, 0, lout, orows, nrows);
      } else {
        ApplyColumns<false>(tt, x, 0, lout, orows, nrows);
      }
    }
  }
}

// One 8-column block of CorrRowsAccum's output rows at m that reaches an
// edge: lane i of term e reads g[off + m + i] only where m + i - shift is
// in [0, lout) and adds -0.0f elsewhere; lanes outside `store` are neither
// read nor written. Positions are compared in 32 bits (rows shorter than
// 2^31 elements).
TRIAD_TARGET_AVX2 inline void ApplyEdgeTerms(const TermTable& tt,
                                             const float* g, int64_t m,
                                             int64_t lout, float* const* rows,
                                             int nrows, __m256i store) {
  const __m256 neg_zero = _mm256_set1_ps(-0.0f);
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i minus_one = _mm256_set1_epi32(-1);
  const __m256i lout_v = _mm256_set1_epi32(static_cast<int>(lout));
  __m256 acc[kRows];
  for (int r = 0; r < kRows; ++r) {
    acc[r] = r < nrows ? _mm256_maskload_ps(rows[r] + m, store)
                       : _mm256_setzero_ps();
  }
  for (int e = 0; e < tt.count; ++e) {
    const __m256i pos = _mm256_add_epi32(
        iota, _mm256_set1_epi32(static_cast<int>(m - tt.shift[e])));
    const __m256i in = _mm256_and_si256(_mm256_cmpgt_epi32(pos, minus_one),
                                        _mm256_cmpgt_epi32(lout_v, pos));
    const __m256 gv = _mm256_maskload_ps(g + (tt.off[e] + m), in);
    for (int r = 0; r < kRows; ++r) {
      const __m256 keep = _mm256_and_ps(_mm256_castsi256_ps(in),
                                        _mm256_broadcast_ss(&tt.keep[e][r]));
      const __m256 p =
          _mm256_mul_ps(_mm256_broadcast_ss(&tt.w[e][r]), gv);
      acc[r] = _mm256_add_ps(
          acc[r], _mm256_or_ps(_mm256_and_ps(p, keep),
                               _mm256_andnot_ps(keep, neg_zero)));
    }
  }
  for (int r = 0; r < kRows; ++r) {
    if (r < nrows) _mm256_maskstore_ps(rows[r] + m, store, acc[r]);
  }
}

TRIAD_TARGET_AVX2 void CorrRowsAccum(const float* g, int64_t gstride,
                                     const float* w, int64_t wrow,
                                     int64_t wstride, int64_t cout,
                                     int64_t taps, int64_t dilation, float* d,
                                     int64_t dstride, int64_t rows,
                                     int64_t lout) {
  // Columns [span, lout) of a row see every term in range (the interior);
  // the columns before span and from lout on take the edge path.
  const int64_t span = (taps - 1) * dilation;
  const int64_t lpad = lout + span;
  const int64_t terms = cout * taps;
  TermTable tt;
  for (int64_t r0 = 0; r0 < rows; r0 += kRows) {
    const int nrows = static_cast<int>(std::min<int64_t>(kRows, rows - r0));
    float* drows[kRows];
    for (int r = 0; r < kRows; ++r) {
      drows[r] = d + (r0 + std::min(r, nrows - 1)) * dstride;
    }
    for (int64_t j0 = 0; j0 < terms; j0 += kTermChunk) {
      BuildTermTable(w + r0 * wrow, wrow, wstride, 1, gstride, -dilation,
                     taps, dilation, nrows, j0,
                     std::min(terms, j0 + kTermChunk), &tt);
      const int64_t front = std::min(span, lpad);
      for (int64_t m = 0; m < front; m += 8) {
        ApplyEdgeTerms(tt, g, m, lout, drows, nrows, LaneMask(front - m));
      }
      if (tt.skips) {
        ApplyColumns<true>(tt, g, front, lout, drows, nrows);
      } else {
        ApplyColumns<false>(tt, g, front, lout, drows, nrows);
      }
      for (int64_t m = std::max(front, lout); m < lpad; m += 8) {
        ApplyEdgeTerms(tt, g, m, lout, drows, nrows, LaneMask(lpad - m));
      }
    }
  }
}

// ---- ConvTapDotTile ----

// In-register 4x4 transpose: afterwards a_k holds lane k of the inputs.
TRIAD_TARGET_AVX2 inline void Transpose4x4(__m256d* a) {
  const __m256d t0 = _mm256_unpacklo_pd(a[0], a[1]);
  const __m256d t1 = _mm256_unpackhi_pd(a[0], a[1]);
  const __m256d t2 = _mm256_unpacklo_pd(a[2], a[3]);
  const __m256d t3 = _mm256_unpackhi_pd(a[2], a[3]);
  a[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  a[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  a[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  a[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

// Four dots' HSum4 at once: lane k of the result is (a_k[0] + a_k[1]) +
// (a_k[2] + a_k[3]), HSum4's exact order.
TRIAD_TARGET_AVX2 inline __m256d HSum4x4(__m256d* a) {
  Transpose4x4(a);
  return _mm256_add_pd(_mm256_add_pd(a[0], a[1]), _mm256_add_pd(a[2], a[3]));
}

// The R x T dots of gradient rows g + r*gstride (r < nrows <= R) against
// the T shifted windows of x. Each dot runs Dot's two lane chains — lo
// over elements 8s..8s+3, hi over 8s+4..8s+7 — as two passes, so one
// pass keeps only R*T accumulators live; each converted x window feeds R
// rows and each converted g block feeds T taps. Folds and tails then run
// four dots per vector.
template <int R, int T>
TRIAD_TARGET_AVX2 void TapDotTile(const float* x, const float* g,
                                  int64_t gstride, int nrows, int64_t dilation,
                                  int64_t lout, double* out) {
  constexpr int kDots = R * T;
  const float* grow[R];
  for (int r = 0; r < R; ++r) grow[r] = g + std::min(r, nrows - 1) * gstride;
  const int64_t body = lout & ~int64_t{7};
  alignas(32) double chains[2][kDots][4];  // each dot's lo and hi lanes
  for (int half = 0; half < 2; ++half) {
    __m256d acc[R][T];
    for (int r = 0; r < R; ++r) {
      for (int t = 0; t < T; ++t) acc[r][t] = _mm256_setzero_pd();
    }
    for (int64_t i = 4 * half; i < body; i += 8) {
      __m256d gv[R];
      for (int r = 0; r < R; ++r) {
        gv[r] = _mm256_cvtps_pd(_mm_loadu_ps(grow[r] + i));
      }
      for (int t = 0; t < T; ++t) {
        const __m256d xv = _mm256_cvtps_pd(_mm_loadu_ps(x + t * dilation + i));
        for (int r = 0; r < R; ++r) {
          acc[r][t] = _mm256_fmadd_pd(xv, gv[r], acc[r][t]);
        }
      }
    }
    for (int r = 0; r < R; ++r) {
      for (int t = 0; t < T; ++t) {
        _mm256_store_pd(chains[half][r * T + t], acc[r][t]);
      }
    }
  }
  // Four dots per vector: fold each dot's lo and hi chains, then add its
  // tail products in ascending order. The tail products come from one
  // masked 8-wide load per operand, transposed so vector j holds the four
  // dots' products at element body + j.
  const int64_t tail = lout - body;
  const __m256i tail_lanes = LaneMask(tail);
  const int valid = nrows * T;
  for (int q = 0; q < kDots; q += 4) {
    int dot[4];
    for (int k = 0; k < 4; ++k) dot[k] = std::min(q + k, kDots - 1);  // pads
    // With no full block both chains are +0.0, and so is their fold.
    __m256d sum = _mm256_setzero_pd();
    if (body > 0) {
      __m256d l4[4], h4[4];
      for (int k = 0; k < 4; ++k) {
        l4[k] = _mm256_load_pd(chains[0][dot[k]]);
        h4[k] = _mm256_load_pd(chains[1][dot[k]]);
      }
      sum = _mm256_add_pd(HSum4x4(l4), HSum4x4(h4));
    }
    if (tail > 0) {
      __m256d p_lo[4], p_hi[4];
      for (int k = 0; k < 4; ++k) {
        const __m256 xs = _mm256_maskload_ps(
            x + (dot[k] % T) * dilation + body, tail_lanes);
        const __m256 gs = _mm256_maskload_ps(grow[dot[k] / T] + body,
                                             tail_lanes);
        p_lo[k] = _mm256_mul_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(xs)),
                                _mm256_cvtps_pd(_mm256_castps256_ps128(gs)));
        p_hi[k] = _mm256_mul_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(xs, 1)),
                                _mm256_cvtps_pd(_mm256_extractf128_ps(gs, 1)));
      }
      Transpose4x4(p_lo);
      Transpose4x4(p_hi);
      for (int64_t j = 0; j < tail; ++j) {
        sum = _mm256_add_pd(sum, j < 4 ? p_lo[j] : p_hi[j - 4]);
      }
    }
    const __m256i store = _mm256_cmpgt_epi64(_mm256_set1_epi64x(valid - q),
                                             _mm256_setr_epi64x(0, 1, 2, 3));
    _mm256_maskstore_pd(out + q, store, sum);
  }
}

// Register tiles of at most 12 dots: eight gradient rows at one tap, four
// at three taps, fewer rows for more taps.
template <int T>
TRIAD_TARGET_AVX2 void TapDotRows(const float* x, const float* g,
                                  int64_t gstride, int64_t rows,
                                  int64_t dilation, int64_t lout,
                                  double* out) {
  constexpr int R = T == 1 ? 8 : (12 / T > 0 ? 12 / T : 1);
  for (int64_t r0 = 0; r0 < rows; r0 += R) {
    const int nrows = static_cast<int>(std::min<int64_t>(R, rows - r0));
    TapDotTile<R, T>(x, g + r0 * gstride, gstride, nrows, dilation, lout,
                     out + r0 * T);
  }
}

TRIAD_TARGET_AVX2 void ConvTapDotTile(const float* x, const float* g,
                                      int64_t gstride, int64_t rows,
                                      int64_t taps, int64_t dilation,
                                      int64_t lout, double* out) {
  switch (taps) {
    case 1: return TapDotRows<1>(x, g, gstride, rows, dilation, lout, out);
    case 2: return TapDotRows<2>(x, g, gstride, rows, dilation, lout, out);
    case 3: return TapDotRows<3>(x, g, gstride, rows, dilation, lout, out);
    case 4: return TapDotRows<4>(x, g, gstride, rows, dilation, lout, out);
    case 5: return TapDotRows<5>(x, g, gstride, rows, dilation, lout, out);
    case 6: return TapDotRows<6>(x, g, gstride, rows, dilation, lout, out);
    case 7: return TapDotRows<7>(x, g, gstride, rows, dilation, lout, out);
    default: return TapDotRows<8>(x, g, gstride, rows, dilation, lout, out);
  }
}

TRIAD_TARGET_AVX2 void AddRelu(const float* a, const float* b, float* out,
                               int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 s =
        _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(out + i, _mm256_max_ps(s, zero));
  }
  for (; i < n; ++i) {
    const float s = a[i] + b[i];
    out[i] = s > 0.0f ? s : 0.0f;
  }
}

TRIAD_TARGET_AVX2 void AddReluMask(const float* a, const float* b,
                                   const float* g, float* out, int64_t n) {
  // GT_OQ is false on NaN sums, matching the scalar `(a+b) > 0` branch; the
  // all-ones mask passes g through bit-exactly.
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 s =
        _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 mask = _mm256_cmp_ps(s, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(out + i, _mm256_and_ps(mask, _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) {
    out[i] = (a[i] + b[i]) > 0.0f ? g[i] : 0.0f;
  }
}

TRIAD_TARGET_AVX2 void ReluMask(const float* x, const float* g, float* out,
                                int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask =
        _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_GT_OQ);
    _mm256_storeu_ps(out + i, _mm256_and_ps(mask, _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) out[i] = x[i] > 0.0f ? g[i] : 0.0f;
}

TRIAD_TARGET_AVX2 void SlidingDotUpdate(double* qt, int64_t n, double drop,
                                        const double* tail, double add,
                                        const double* head) {
  const __m256d dropv = _mm256_set1_pd(drop);
  const __m256d addv = _mm256_set1_pd(add);
  int64_t j = n - 1;
  // Blocks walk top-down writing qt[j-3..j] from qt[j-4..j-1]; the in-block
  // overlap is safe (loads complete before the store) and later blocks only
  // read indices no block has written yet.
  for (; j - 3 >= 1; j -= 4) {
    const __m256d prev = _mm256_loadu_pd(qt + j - 4);
    const __m256d t = _mm256_loadu_pd(tail + j - 4);
    const __m256d h = _mm256_loadu_pd(head + j - 4);
    const __m256d res = _mm256_add_pd(
        _mm256_sub_pd(prev, _mm256_mul_pd(dropv, t)), _mm256_mul_pd(addv, h));
    _mm256_storeu_pd(qt + j - 3, res);
  }
  for (; j >= 1; --j) {
    qt[j] = qt[j - 1] - drop * tail[j - 1] + add * head[j - 1];
  }
}

TRIAD_TARGET_AVX2 void ZNormDistRow(const double* dot, const double* mu,
                                    const double* sd, double mu_q, double sd_q,
                                    int64_t m, double* out, int64_t n) {
  const double dm = static_cast<double>(m);
  if (sd_q < 1e-12) {
    scalar::ZNormDistRow(dot, mu, sd, mu_q, sd_q, m, out, n);
    return;
  }
  const __m256d c1 = _mm256_set1_pd(dm * mu_q);
  const __m256d c2 = _mm256_set1_pd(dm * sd_q);
  const __m256d two_m = _mm256_set1_pd(2.0 * dm);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d neg_one = _mm256_set1_pd(-1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d flat_eps = _mm256_set1_pd(1e-12);
  // Flat windows get +inf, matching the scalar kernel bit-for-bit.
  const __m256d flat_dist_v =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d sdv = _mm256_loadu_pd(sd + j);
    const __m256d muv = _mm256_loadu_pd(mu + j);
    const __m256d dotv = _mm256_loadu_pd(dot + j);
    const __m256d corr = _mm256_div_pd(
        _mm256_sub_pd(dotv, _mm256_mul_pd(c1, muv)), _mm256_mul_pd(c2, sdv));
    // clamp(corr, -1, 1): vmaxpd/vminpd return the second operand on NaN,
    // but NaN can only arise in flat lanes, which the blend overwrites.
    const __m256d clamped =
        _mm256_min_pd(_mm256_max_pd(corr, neg_one), one);
    const __m256d dist = _mm256_sqrt_pd(_mm256_max_pd(
        zero, _mm256_mul_pd(two_m, _mm256_sub_pd(one, clamped))));
    const __m256d flat = _mm256_cmp_pd(sdv, flat_eps, _CMP_LT_OQ);
    _mm256_storeu_pd(out + j, _mm256_blendv_pd(dist, flat_dist_v, flat));
  }
  if (j < n) {
    scalar::ZNormDistRow(dot + j, mu + j, sd + j, mu_q, sd_q, m, out + j,
                         n - j);
  }
}

// Lane for lane the scalar chain: the max folds use vmaxpd(corr, acc),
// which returns acc when corr is NaN — the scalar `corr > acc ? corr :
// acc`. Lanes fold in a fixed order and the +0.0 of the scalar return
// erases the only order-dependent bit (the sign of a zero maximum).
TRIAD_TARGET_AVX2 double CorrRowMax(double* q, int64_t n, double inv_m,
                                    double mu_row, double inv_sd_row,
                                    const double* mu, const double* inv_sd,
                                    double* col_max, double drop,
                                    const double* tail, double add,
                                    const double* head) {
  const __m256d inv_mv = _mm256_set1_pd(inv_m);
  const __m256d mu_rowv = _mm256_set1_pd(mu_row);
  const __m256d inv_rowv = _mm256_set1_pd(inv_sd_row);
  const __m256d dropv = _mm256_set1_pd(drop);
  const __m256d addv = _mm256_set1_pd(add);
  __m256d row_maxv = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  int64_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d qv = _mm256_loadu_pd(q + k);
    const __m256d corr = _mm256_mul_pd(
        _mm256_mul_pd(_mm256_sub_pd(_mm256_mul_pd(qv, inv_mv),
                                    _mm256_mul_pd(mu_rowv,
                                                  _mm256_loadu_pd(mu + k))),
                      _mm256_loadu_pd(inv_sd + k)),
        inv_rowv);
    row_maxv = _mm256_max_pd(corr, row_maxv);
    _mm256_storeu_pd(col_max + k,
                     _mm256_max_pd(corr, _mm256_loadu_pd(col_max + k)));
    const __m256d next = _mm256_add_pd(
        _mm256_sub_pd(qv, _mm256_mul_pd(dropv, _mm256_loadu_pd(tail + k))),
        _mm256_mul_pd(addv, _mm256_loadu_pd(head + k)));
    _mm256_storeu_pd(q + k, next);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, row_maxv);
  double row_max = lanes[0];
  for (int l = 1; l < 4; ++l) row_max = lanes[l] > row_max ? lanes[l] : row_max;
  const double tail_max =
      scalar::CorrRowMax(q + k, n - k, inv_m, mu_row, inv_sd_row, mu + k,
                         inv_sd + k, col_max + k, drop, tail + k, add,
                         head + k);
  row_max = tail_max > row_max ? tail_max : row_max;
  return row_max + 0.0;
}

// Lane l is the scalar chain of window b + l: one load per term feeds all
// four lanes. The sum never waits on the stop test: every lane keeps
// adding, and the first sum past the threshold is latched into `stopped`,
// which is what the scalar loop returns. Flat columns start stopped at
// +inf; the loop ends once every lane has stopped.
TRIAD_TARGET_AVX2 void ZNormDistEarlyAbandon4(const double* a, double mu_a,
                                              double inv_a, const double* b,
                                              const double* mu_b,
                                              const double* inv_b, int64_t m,
                                              double limit, double* out) {
  if (std::isnan(inv_a)) {
    scalar::ZNormDistEarlyAbandon4(a, mu_a, inv_a, b, mu_b, inv_b, m, limit,
                                   out);
    return;
  }
  const __m256d threshold = _mm256_set1_pd(limit * limit);
  const __m256d mu_bv = _mm256_loadu_pd(mu_b);
  const __m256d inv_bv = _mm256_loadu_pd(inv_b);
  __m256d done = _mm256_cmp_pd(inv_bv, inv_bv, _CMP_UNORD_Q);
  __m256d stopped = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d acc = _mm256_setzero_pd();
  for (int64_t t = 0; t < m; ++t) {
    const __m256d za = _mm256_set1_pd((a[t] - mu_a) * inv_a);
    const __m256d zb = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(b + t), mu_bv), inv_bv);
    const __m256d d = _mm256_sub_pd(za, zb);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    const __m256d over =
        _mm256_andnot_pd(done, _mm256_cmp_pd(acc, threshold, _CMP_GT_OQ));
    stopped = _mm256_blendv_pd(stopped, acc, over);
    done = _mm256_or_pd(done, over);
    if (_mm256_movemask_pd(done) == 0xF) break;
  }
  _mm256_storeu_pd(out, _mm256_sqrt_pd(_mm256_blendv_pd(acc, stopped, done)));
}

// Four windows per vector, each lane running the scalar dot chain (0.0
// start, k ascending, mul then add). Blocks of four vectors keep four
// independent add chains in flight; then single vectors, then the scalar
// tail. Max folds and the final +0.0 follow CorrRowMax.
TRIAD_TARGET_AVX2 double SlidingCorrMax(const double* q, int64_t m,
                                        const double* x, const double* inv_sd,
                                        int64_t n) {
  __m256d best_v = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const double* xi = x + i;
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    for (int64_t k = 0; k < m; ++k) {
      const __m256d qk = _mm256_broadcast_sd(q + k);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(qk, _mm256_loadu_pd(xi + k)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(qk, _mm256_loadu_pd(xi + k + 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(qk, _mm256_loadu_pd(xi + k + 8)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(qk, _mm256_loadu_pd(xi + k + 12)));
    }
    best_v = _mm256_max_pd(_mm256_mul_pd(a0, _mm256_loadu_pd(inv_sd + i)),
                           best_v);
    best_v = _mm256_max_pd(_mm256_mul_pd(a1, _mm256_loadu_pd(inv_sd + i + 4)),
                           best_v);
    best_v = _mm256_max_pd(_mm256_mul_pd(a2, _mm256_loadu_pd(inv_sd + i + 8)),
                           best_v);
    best_v = _mm256_max_pd(
        _mm256_mul_pd(a3, _mm256_loadu_pd(inv_sd + i + 12)), best_v);
  }
  for (; i + 4 <= n; i += 4) {
    __m256d a = _mm256_setzero_pd();
    for (int64_t k = 0; k < m; ++k) {
      a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_broadcast_sd(q + k),
                                         _mm256_loadu_pd(x + i + k)));
    }
    best_v = _mm256_max_pd(_mm256_mul_pd(a, _mm256_loadu_pd(inv_sd + i)),
                           best_v);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, best_v);
  double best = lanes[0];
  for (int l = 1; l < 4; ++l) best = lanes[l] > best ? lanes[l] : best;
  const double tail =
      scalar::SlidingCorrMax(q, m, x + i, inv_sd + i, n - i);
  best = tail > best ? tail : best;
  return best + 0.0;
}

#undef TRIAD_TARGET_AVX2

}  // namespace avx2
#endif  // TRIAD_SIMD_HAVE_AVX2

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------
namespace {

struct KernelTable {
  double (*dot)(const float*, const float*, int64_t);
  double (*sum)(const float*, int64_t);
  void (*axpy)(float, const float*, float*, int64_t);
  void (*add)(const float*, const float*, float*, int64_t);
  void (*mul)(const float*, const float*, float*, int64_t);
  void (*relu)(const float*, float*, int64_t);
  void (*conv_rows)(const float*, int64_t, const float*, int64_t, int64_t,
                    int64_t, int64_t, int64_t, float*, int64_t, int64_t,
                    int64_t);
  void (*corr_rows)(const float*, int64_t, const float*, int64_t, int64_t,
                    int64_t, int64_t, int64_t, float*, int64_t, int64_t,
                    int64_t);
  void (*tap_dot_tile)(const float*, const float*, int64_t, int64_t, int64_t,
                       int64_t, int64_t, double*);
  void (*add_relu)(const float*, const float*, float*, int64_t);
  void (*add_relu_mask)(const float*, const float*, const float*, float*,
                        int64_t);
  void (*relu_mask)(const float*, const float*, float*, int64_t);
  void (*sliding)(double*, int64_t, double, const double*, double,
                  const double*);
  void (*znorm)(const double*, const double*, const double*, double, double,
                int64_t, double*, int64_t);
  double (*corr_row_max)(double*, int64_t, double, double, double,
                         const double*, const double*, double*, double,
                         const double*, double, const double*);
  void (*znorm_abandon4)(const double*, double, double, const double*,
                         const double*, const double*, int64_t, double,
                         double*);
  double (*sliding_corr_max)(const double*, int64_t, const double*,
                             const double*, int64_t);
};

constexpr KernelTable kScalarTable = {
    scalar::Dot,  scalar::Sum,  scalar::Axpy,
    scalar::Add,  scalar::Mul,  scalar::Relu,
    scalar::ConvRowsAccum,      scalar::CorrRowsAccum,
    scalar::ConvTapDotTile,
    scalar::AddRelu,            scalar::AddReluMask,
    scalar::ReluMask,           scalar::SlidingDotUpdate,   scalar::ZNormDistRow,
    scalar::CorrRowMax,         scalar::ZNormDistEarlyAbandon4,
    scalar::SlidingCorrMax,
};

#if TRIAD_SIMD_HAVE_AVX2
constexpr KernelTable kAvx2Table = {
    avx2::Dot,  avx2::Sum,  avx2::Axpy,
    avx2::Add,  avx2::Mul,  avx2::Relu,
    avx2::ConvRowsAccum,     avx2::CorrRowsAccum,
    avx2::ConvTapDotTile,
    avx2::AddRelu,           avx2::AddReluMask,
    avx2::ReluMask,          avx2::SlidingDotUpdate,  avx2::ZNormDistRow,
    avx2::CorrRowMax,        avx2::ZNormDistEarlyAbandon4,
    avx2::SlidingCorrMax,
};
#endif

const KernelTable& TableFor(Level level) {
#if TRIAD_SIMD_HAVE_AVX2
  if (level == Level::kAvx2) return kAvx2Table;
#endif
  (void)level;
  return kScalarTable;
}

// -1 = no ScopedForceLevel active. Plain int: overrides are installed from
// a single thread between parallel batches (same contract as the
// ScopedDefaultPool override in parallel.cc).
int g_forced_level = -1;

Level EnvConfiguredLevel() {
  const std::string mode = GetEnvString("TRIAD_SIMD", "auto");
  if (mode == "off" || mode == "scalar" || mode == "0") return Level::kScalar;
  const Level best = HighestSupportedLevel();
  if (mode == "avx2") return best;  // best is kAvx2 whenever the CPU has it
  return best;                      // "auto" / unrecognized
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Level HighestSupportedLevel() {
#if TRIAD_SIMD_HAVE_AVX2
  static const bool has_avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (has_avx2) return Level::kAvx2;
#endif
  return Level::kScalar;
}

Level ActiveLevel() {
  static const Level env_level = EnvConfiguredLevel();
  if (g_forced_level >= 0) return static_cast<Level>(g_forced_level);
  return env_level;
}

ScopedForceLevel::ScopedForceLevel(Level level) : previous_(g_forced_level) {
  const Level clamped =
      level > HighestSupportedLevel() ? HighestSupportedLevel() : level;
  g_forced_level = static_cast<int>(clamped);
}

ScopedForceLevel::~ScopedForceLevel() { g_forced_level = previous_; }

double Dot(const float* a, const float* b, int64_t n) {
  return TableFor(ActiveLevel()).dot(a, b, n);
}

double Sum(const float* x, int64_t n) {
  return TableFor(ActiveLevel()).sum(x, n);
}

void Axpy(float alpha, const float* x, float* y, int64_t n) {
  TableFor(ActiveLevel()).axpy(alpha, x, y, n);
}

void Add(const float* a, const float* b, float* out, int64_t n) {
  TableFor(ActiveLevel()).add(a, b, out, n);
}

void Mul(const float* a, const float* b, float* out, int64_t n) {
  TableFor(ActiveLevel()).mul(a, b, out, n);
}

void Relu(const float* x, float* out, int64_t n) {
  TableFor(ActiveLevel()).relu(x, out, n);
}

void ConvRowsAccum(const float* x, int64_t xstride, const float* w,
                   int64_t wrow, int64_t wterm, int64_t cin, int64_t taps,
                   int64_t dilation, float* out, int64_t ostride, int64_t rows,
                   int64_t lout) {
  TableFor(ActiveLevel())
      .conv_rows(x, xstride, w, wrow, wterm, cin, taps, dilation, out, ostride,
                 rows, lout);
}

void CorrRowsAccum(const float* g, int64_t gstride, const float* w,
                   int64_t wrow, int64_t wstride, int64_t cout, int64_t taps,
                   int64_t dilation, float* d, int64_t dstride, int64_t rows,
                   int64_t lout) {
  TableFor(ActiveLevel())
      .corr_rows(g, gstride, w, wrow, wstride, cout, taps, dilation, d,
                 dstride, rows, lout);
}

void ConvTapDotTile(const float* x, const float* g, int64_t gstride,
                    int64_t rows, int64_t taps, int64_t dilation,
                    int64_t lout, double* out) {
  TableFor(ActiveLevel())
      .tap_dot_tile(x, g, gstride, rows, taps, dilation, lout, out);
}

void AddRelu(const float* a, const float* b, float* out, int64_t n) {
  TableFor(ActiveLevel()).add_relu(a, b, out, n);
}

void AddReluMask(const float* a, const float* b, const float* g, float* out,
                 int64_t n) {
  TableFor(ActiveLevel()).add_relu_mask(a, b, g, out, n);
}

void ReluMask(const float* x, const float* g, float* out, int64_t n) {
  TableFor(ActiveLevel()).relu_mask(x, g, out, n);
}

void SlidingDotUpdate(double* qt, int64_t n, double drop, const double* tail,
                      double add, const double* head) {
  TableFor(ActiveLevel()).sliding(qt, n, drop, tail, add, head);
}

void ZNormDistRow(const double* dot, const double* mu, const double* sd,
                  double mu_q, double sd_q, int64_t m, double* out,
                  int64_t n) {
  TableFor(ActiveLevel()).znorm(dot, mu, sd, mu_q, sd_q, m, out, n);
}

double CorrRowMax(double* q, int64_t n, double inv_m, double mu_row,
                  double inv_sd_row, const double* mu, const double* inv_sd,
                  double* col_max, double drop, const double* tail,
                  double add, const double* head) {
  return TableFor(ActiveLevel())
      .corr_row_max(q, n, inv_m, mu_row, inv_sd_row, mu, inv_sd, col_max,
                    drop, tail, add, head);
}

void ZNormDistEarlyAbandon4(const double* a, double mu_a, double inv_a,
                            const double* b, const double* mu_b,
                            const double* inv_b, int64_t m, double limit,
                            double* out) {
  TableFor(ActiveLevel())
      .znorm_abandon4(a, mu_a, inv_a, b, mu_b, inv_b, m, limit, out);
}

double SlidingCorrMax(const double* q, int64_t m, const double* x,
                      const double* inv_sd, int64_t n) {
  return TableFor(ActiveLevel()).sliding_corr_max(q, m, x, inv_sd, n);
}

}  // namespace triad::simd
