#include "common/simd.h"

#include <algorithm>
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

void ConvRowAccum(const float* x, int64_t xstride, const float* w,
                  int64_t cin, int64_t taps, int64_t dilation, float* orow,
                  int64_t lout) {
  // One axpy pass per tap. Per element this applies the taps in (ci, t)
  // order — the canonical chain the vector tiers reproduce in registers.
  for (int64_t ci = 0; ci < cin; ++ci) {
    const float* xrow = x + ci * xstride;
    const float* wrow = w + ci * taps;
    for (int64_t t = 0; t < taps; ++t) {
      const float wv = wrow[t];
      if (wv == 0.0f) continue;
      Axpy(wv, xrow + t * dilation, orow, lout);
    }
  }
}

void ConvTapDots(const float* x, const float* g, int64_t taps,
                 int64_t dilation, int64_t lout, double* out) {
  // One Dot per tap — the canonical per-tap chain the vector tier keeps in
  // registers while sharing the g loads.
  for (int64_t t = 0; t < taps; ++t) out[t] = Dot(x + t * dilation, g, lout);
}

void CorrRowAccum(const float* g, int64_t gstride, const float* w,
                  int64_t wstride, int64_t cout, int64_t taps,
                  int64_t dilation, float* drow, int64_t lout) {
  // One axpy pass per (co, t) term. Per element this applies the terms in
  // (co, t) order — the chain the vector tier reproduces in registers.
  for (int64_t co = 0; co < cout; ++co) {
    const float* grow = g + co * gstride;
    const float* wrow = w + co * wstride;
    for (int64_t t = 0; t < taps; ++t) {
      const float wv = wrow[t];
      if (wv == 0.0f) continue;
      Axpy(wv, grow, drow + t * dilation, lout);
    }
  }
}

void DotPair(const float* a, const float* b0, const float* b1, int64_t n,
             double* out2) {
  out2[0] = Dot(a, b0, n);
  out2[1] = Dot(a, b1, n);
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

TRIAD_TARGET_AVX2 void ConvRowAccum(const float* x, int64_t xstride,
                                    const float* w, int64_t cin, int64_t taps,
                                    int64_t dilation, float* orow,
                                    int64_t lout) {
  // Keeps a 32-float register block of the output row live across the
  // whole cin*taps tap sequence (the scalar tier re-reads the row once per
  // tap). Per lane the op chain — mul, then add, in (ci, t) order, zero
  // weights skipped — matches the scalar reference exactly, so the fusion
  // changes traffic, not results.
  int64_t l = 0;
  for (; l + 32 <= lout; l += 32) {
    float* const o = orow + l;
    __m256 acc0 = _mm256_loadu_ps(o);
    __m256 acc1 = _mm256_loadu_ps(o + 8);
    __m256 acc2 = _mm256_loadu_ps(o + 16);
    __m256 acc3 = _mm256_loadu_ps(o + 24);
    for (int64_t ci = 0; ci < cin; ++ci) {
      const float* xrow = x + ci * xstride + l;
      const float* wrow = w + ci * taps;
      for (int64_t t = 0; t < taps; ++t) {
        const float wv = wrow[t];
        if (wv == 0.0f) continue;
        const __m256 wvv = _mm256_set1_ps(wv);
        const float* xs = xrow + t * dilation;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(wvv, _mm256_loadu_ps(xs)));
        acc1 =
            _mm256_add_ps(acc1, _mm256_mul_ps(wvv, _mm256_loadu_ps(xs + 8)));
        acc2 =
            _mm256_add_ps(acc2, _mm256_mul_ps(wvv, _mm256_loadu_ps(xs + 16)));
        acc3 =
            _mm256_add_ps(acc3, _mm256_mul_ps(wvv, _mm256_loadu_ps(xs + 24)));
      }
    }
    _mm256_storeu_ps(o, acc0);
    _mm256_storeu_ps(o + 8, acc1);
    _mm256_storeu_ps(o + 16, acc2);
    _mm256_storeu_ps(o + 24, acc3);
  }
  for (; l + 8 <= lout; l += 8) {
    __m256 acc = _mm256_loadu_ps(orow + l);
    for (int64_t ci = 0; ci < cin; ++ci) {
      const float* xrow = x + ci * xstride + l;
      const float* wrow = w + ci * taps;
      for (int64_t t = 0; t < taps; ++t) {
        const float wv = wrow[t];
        if (wv == 0.0f) continue;
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(wv),
                               _mm256_loadu_ps(xrow + t * dilation)));
      }
    }
    _mm256_storeu_ps(orow + l, acc);
  }
  for (; l < lout; ++l) {
    float acc = orow[l];
    for (int64_t ci = 0; ci < cin; ++ci) {
      const float* xrow = x + ci * xstride + l;
      const float* wrow = w + ci * taps;
      for (int64_t t = 0; t < taps; ++t) {
        const float wv = wrow[t];
        if (wv == 0.0f) continue;
        acc += wv * xrow[t * dilation];
      }
    }
    orow[l] = acc;
  }
}

TRIAD_TARGET_AVX2 void ConvTapDots(const float* x, const float* g,
                                   int64_t taps, int64_t dilation,
                                   int64_t lout, double* out) {
  // Per-tap even/odd double accumulators, exactly Dot's — the taps just
  // march over the shared g block converted once. `taps` capped at 8 keeps
  // the accumulator array small (the conv stacks use 3–5 taps).
  __m256d acc_lo[8];
  __m256d acc_hi[8];
  for (int64_t t = 0; t < taps; ++t) {
    acc_lo[t] = _mm256_setzero_pd();
    acc_hi[t] = _mm256_setzero_pd();
  }
  int64_t i = 0;
  for (; i + 8 <= lout; i += 8) {
    const __m256 gv = _mm256_loadu_ps(g + i);
    const __m256d g_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(gv));
    const __m256d g_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(gv, 1));
    for (int64_t t = 0; t < taps; ++t) {
      const __m256 xv = _mm256_loadu_ps(x + t * dilation + i);
      acc_lo[t] = _mm256_fmadd_pd(
          _mm256_cvtps_pd(_mm256_castps256_ps128(xv)), g_lo, acc_lo[t]);
      acc_hi[t] = _mm256_fmadd_pd(
          _mm256_cvtps_pd(_mm256_extractf128_ps(xv, 1)), g_hi, acc_hi[t]);
    }
  }
  for (int64_t t = 0; t < taps; ++t) {
    double acc = HSum4(acc_lo[t]) + HSum4(acc_hi[t]);
    const float* xt = x + t * dilation;
    for (int64_t j = i; j < lout; ++j) {
      acc += static_cast<double>(xt[j]) * static_cast<double>(g[j]);
    }
    out[t] = acc;
  }
}

TRIAD_TARGET_AVX2 void CorrRowAccum(const float* g, int64_t gstride,
                                    const float* w, int64_t wstride,
                                    int64_t cout, int64_t taps,
                                    int64_t dilation, float* drow,
                                    int64_t lout) {
  // The interior of drow — elements every tap reaches — is register-blocked
  // across the whole cout*taps term sequence; the (taps-1)*dilation edge
  // elements on each side get per-tap partial axpy passes. Each drow
  // element lives in exactly one region and sees its terms in (co, t)
  // order with separate mul/add and zero-skip, so the result is
  // bit-identical to the scalar one-axpy-per-term reference.
  const int64_t span = (taps - 1) * dilation;
  const int64_t hi = span > lout ? span : lout;
  for (int64_t co = 0; co < cout; ++co) {  // front edge: drow[0, span)
    const float* grow = g + co * gstride;
    const float* wrow = w + co * wstride;
    for (int64_t t = 0; t < taps; ++t) {
      const float wv = wrow[t];
      if (wv == 0.0f) continue;
      const int64_t len = std::min(lout, span - t * dilation);
      if (len > 0) Axpy(wv, grow, drow + t * dilation, len);
    }
  }
  int64_t m = span;  // interior: drow[span, lout)
  for (; m + 32 <= lout; m += 32) {
    float* const o = drow + m;
    __m256 acc0 = _mm256_loadu_ps(o);
    __m256 acc1 = _mm256_loadu_ps(o + 8);
    __m256 acc2 = _mm256_loadu_ps(o + 16);
    __m256 acc3 = _mm256_loadu_ps(o + 24);
    for (int64_t co = 0; co < cout; ++co) {
      const float* grow = g + co * gstride + m;
      const float* wrow = w + co * wstride;
      for (int64_t t = 0; t < taps; ++t) {
        const float wv = wrow[t];
        if (wv == 0.0f) continue;
        const __m256 wvv = _mm256_set1_ps(wv);
        const float* gs = grow - t * dilation;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(wvv, _mm256_loadu_ps(gs)));
        acc1 =
            _mm256_add_ps(acc1, _mm256_mul_ps(wvv, _mm256_loadu_ps(gs + 8)));
        acc2 =
            _mm256_add_ps(acc2, _mm256_mul_ps(wvv, _mm256_loadu_ps(gs + 16)));
        acc3 =
            _mm256_add_ps(acc3, _mm256_mul_ps(wvv, _mm256_loadu_ps(gs + 24)));
      }
    }
    _mm256_storeu_ps(o, acc0);
    _mm256_storeu_ps(o + 8, acc1);
    _mm256_storeu_ps(o + 16, acc2);
    _mm256_storeu_ps(o + 24, acc3);
  }
  for (; m + 8 <= lout; m += 8) {
    __m256 acc = _mm256_loadu_ps(drow + m);
    for (int64_t co = 0; co < cout; ++co) {
      const float* grow = g + co * gstride + m;
      const float* wrow = w + co * wstride;
      for (int64_t t = 0; t < taps; ++t) {
        const float wv = wrow[t];
        if (wv == 0.0f) continue;
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(wv),
                               _mm256_loadu_ps(grow - t * dilation)));
      }
    }
    _mm256_storeu_ps(drow + m, acc);
  }
  for (; m < lout; ++m) {
    float acc = drow[m];
    for (int64_t co = 0; co < cout; ++co) {
      const float* grow = g + co * gstride;
      const float* wrow = w + co * wstride;
      for (int64_t t = 0; t < taps; ++t) {
        const float wv = wrow[t];
        if (wv == 0.0f) continue;
        acc += wv * grow[m - t * dilation];
      }
    }
    drow[m] = acc;
  }
  for (int64_t co = 0; co < cout; ++co) {  // back edge: drow[hi, lout + span)
    const float* grow = g + co * gstride;
    const float* wrow = w + co * wstride;
    for (int64_t t = 0; t < taps; ++t) {
      const float wv = wrow[t];
      if (wv == 0.0f) continue;
      const int64_t lstart = hi - t * dilation;
      if (lstart < lout) {
        Axpy(wv, grow + lstart, drow + t * dilation + lstart, lout - lstart);
      }
    }
  }
}

TRIAD_TARGET_AVX2 void DotPair(const float* a, const float* b0,
                               const float* b1, int64_t n, double* out2) {
  __m256d acc0_lo = _mm256_setzero_pd();
  __m256d acc0_hi = _mm256_setzero_pd();
  __m256d acc1_lo = _mm256_setzero_pd();
  __m256d acc1_hi = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 av = _mm256_loadu_ps(a + i);
    const __m256d a_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(av));
    const __m256d a_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(av, 1));
    const __m256 b0v = _mm256_loadu_ps(b0 + i);
    acc0_lo = _mm256_fmadd_pd(
        a_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(b0v)), acc0_lo);
    acc0_hi = _mm256_fmadd_pd(
        a_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(b0v, 1)), acc0_hi);
    const __m256 b1v = _mm256_loadu_ps(b1 + i);
    acc1_lo = _mm256_fmadd_pd(
        a_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(b1v)), acc1_lo);
    acc1_hi = _mm256_fmadd_pd(
        a_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(b1v, 1)), acc1_hi);
  }
  double acc0 = HSum4(acc0_lo) + HSum4(acc0_hi);
  double acc1 = HSum4(acc1_lo) + HSum4(acc1_hi);
  for (int64_t j = i; j < n; ++j) {
    acc0 += static_cast<double>(a[j]) * static_cast<double>(b0[j]);
  }
  for (int64_t j = i; j < n; ++j) {
    acc1 += static_cast<double>(a[j]) * static_cast<double>(b1[j]);
  }
  out2[0] = acc0;
  out2[1] = acc1;
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
  void (*conv_row)(const float*, int64_t, const float*, int64_t, int64_t,
                   int64_t, float*, int64_t);
  void (*conv_tap_dots)(const float*, const float*, int64_t, int64_t, int64_t,
                        double*);
  void (*corr_row)(const float*, int64_t, const float*, int64_t, int64_t,
                   int64_t, int64_t, float*, int64_t);
  void (*dot_pair)(const float*, const float*, const float*, int64_t,
                   double*);
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
  double (*sliding_corr_max)(const double*, int64_t, const double*,
                             const double*, int64_t);
};

constexpr KernelTable kScalarTable = {
    scalar::Dot,  scalar::Sum,  scalar::Axpy,
    scalar::Add,  scalar::Mul,  scalar::Relu,
    scalar::ConvRowAccum,       scalar::ConvTapDots,
    scalar::CorrRowAccum,       scalar::DotPair,
    scalar::AddRelu,            scalar::AddReluMask,
    scalar::ReluMask,           scalar::SlidingDotUpdate,   scalar::ZNormDistRow,
    scalar::CorrRowMax,         scalar::SlidingCorrMax,
};

#if TRIAD_SIMD_HAVE_AVX2
constexpr KernelTable kAvx2Table = {
    avx2::Dot,  avx2::Sum,  avx2::Axpy,
    avx2::Add,  avx2::Mul,  avx2::Relu,
    avx2::ConvRowAccum,      avx2::ConvTapDots,
    avx2::CorrRowAccum,      avx2::DotPair,
    avx2::AddRelu,           avx2::AddReluMask,
    avx2::ReluMask,          avx2::SlidingDotUpdate,  avx2::ZNormDistRow,
    avx2::CorrRowMax,        avx2::SlidingCorrMax,
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

void ConvRowAccum(const float* x, int64_t xstride, const float* w,
                  int64_t cin, int64_t taps, int64_t dilation, float* orow,
                  int64_t lout) {
  TableFor(ActiveLevel())
      .conv_row(x, xstride, w, cin, taps, dilation, orow, lout);
}

void ConvTapDots(const float* x, const float* g, int64_t taps,
                 int64_t dilation, int64_t lout, double* out) {
  TableFor(ActiveLevel()).conv_tap_dots(x, g, taps, dilation, lout, out);
}

void CorrRowAccum(const float* g, int64_t gstride, const float* w,
                  int64_t wstride, int64_t cout, int64_t taps,
                  int64_t dilation, float* drow, int64_t lout) {
  TableFor(ActiveLevel())
      .corr_row(g, gstride, w, wstride, cout, taps, dilation, drow, lout);
}

void DotPair(const float* a, const float* b0, const float* b1, int64_t n,
             double* out2) {
  TableFor(ActiveLevel()).dot_pair(a, b0, b1, n, out2);
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

double SlidingCorrMax(const double* q, int64_t m, const double* x,
                      const double* inv_sd, int64_t n) {
  return TableFor(ActiveLevel()).sliding_corr_max(q, m, x, inv_sd, n);
}

}  // namespace triad::simd
