#include "nn/kernels.h"

#include <algorithm>
#include <vector>

#include "common/parallel.h"
#include "common/simd.h"

namespace triad::nn::kernels {

namespace {

// Grain so that each pool chunk carries a worthwhile amount of work: tiny
// problems collapse to a single chunk, which ParallelFor runs inline on the
// caller. Depends only on the problem shape, never on the pool size, so the
// chunk decomposition (and therefore any per-chunk rounding) stays
// deterministic.
int64_t RowGrain(int64_t rows, int64_t work_per_row) {
  constexpr int64_t kMinWorkPerChunk = 1 << 14;
  const int64_t grain = kMinWorkPerChunk / std::max<int64_t>(1, work_per_row);
  return std::clamp<int64_t>(grain, 1, std::max<int64_t>(1, rows));
}

}  // namespace

void Conv1dForward(const float* xpad, const float* w, const float* bias,
                   float* out, int64_t B, int64_t Cin, int64_t Cout, int64_t K,
                   int64_t Lpad, int64_t Lout, int64_t dilation) {
  // Implicit im2col: each output row reads its taps straight from the
  // padded input (the strided gather happens in ConvRowAccum's register
  // block, never in memory). A materialized [Cin*K, B*Lout] column matrix
  // measured strictly slower here — the copy + alloc traffic is pure
  // overhead once the tap reads are fused — see ARCHITECTURE.md §11.
  // Channels fan across the pool; per element the Cin*K taps apply in
  // (ci, k) order, skipping zero weights, so the values are bit-identical
  // to a serial loop of one ConvRowAccum per (b, co) row.
  ParallelFor(0, Cout, RowGrain(Cout, B * Cin * K * Lout),
              [&](int64_t begin, int64_t end) {
                for (int64_t co = begin; co < end; ++co) {
                  const float* wrow = w + co * Cin * K;
                  const float bv = bias != nullptr ? bias[co] : 0.0f;
                  for (int64_t b = 0; b < B; ++b) {
                    float* orow = out + (b * Cout + co) * Lout;
                    std::fill(orow, orow + Lout, bv);
                    simd::ConvRowAccum(xpad + b * Cin * Lpad, Lpad, wrow, Cin,
                                       K, dilation, orow, Lout);
                  }
                }
              });
}

void Conv1dBackwardInput(const float* g, const float* w, float* gxpad,
                         int64_t B, int64_t Cin, int64_t Cout, int64_t K,
                         int64_t Lpad, int64_t Lout, int64_t dilation) {
  // Each (b, ci) row of gxpad is independent and runs as one fused
  // CorrRowAccum: the Cout*K scatter terms apply per element in (co, k)
  // order — the chain of one simd::Axpy pass per nonzero tap —
  // register-blocked over the row interior. Lpad == Lout + (K-1)*dilation,
  // so the kernel's output row is exactly the gxpad row.
  const int64_t rows = B * Cin;
  ParallelFor(0, rows, RowGrain(rows, Cout * K * Lout),
              [&](int64_t begin, int64_t end) {
                for (int64_t r = begin; r < end; ++r) {
                  const int64_t b = r / Cin;
                  const int64_t ci = r % Cin;
                  simd::CorrRowAccum(g + b * Cout * Lout, Lout, w + ci * K,
                                     Cin * K, Cout, K, dilation,
                                     gxpad + r * Lpad, Lout);
                }
              });
}

void Conv1dBackwardWeight(const float* g, const float* xpad, float* gw,
                          int64_t B, int64_t Cin, int64_t Cout, int64_t K,
                          int64_t Lpad, int64_t Lout, int64_t dilation) {
  // Each co slice of gw is independent. Per (b, ci) pair all K tap dots run
  // as one ConvTapDots sharing the gradient-row loads; every dot is
  // bit-identical to simd::Dot, and per element gw[co,ci,k] the B partials
  // add in ascending b order.
  ParallelFor(0, Cout, RowGrain(Cout, B * Cin * K * Lout),
              [&](int64_t begin, int64_t end) {
                double dots[8];
                for (int64_t co = begin; co < end; ++co) {
                  for (int64_t ci = 0; ci < Cin; ++ci) {
                    float* wrow = gw + (co * Cin + ci) * K;
                    for (int64_t b = 0; b < B; ++b) {
                      const float* grow = g + (b * Cout + co) * Lout;
                      const float* xrow = xpad + (b * Cin + ci) * Lpad;
                      for (int64_t k0 = 0; k0 < K; k0 += 8) {
                        const int64_t taps = std::min<int64_t>(8, K - k0);
                        simd::ConvTapDots(xrow + k0 * dilation, grow, taps,
                                          dilation, Lout, dots);
                        for (int64_t t = 0; t < taps; ++t) {
                          wrow[k0 + t] += static_cast<float>(dots[t]);
                        }
                      }
                    }
                  }
                }
              });
}

void Conv1dBackwardBias(const float* g, float* gb, int64_t B, int64_t Cout,
                        int64_t Lout) {
  ParallelFor(0, Cout, RowGrain(Cout, B * Lout),
              [&](int64_t begin, int64_t end) {
                for (int64_t co = begin; co < end; ++co) {
                  for (int64_t b = 0; b < B; ++b) {
                    gb[co] += static_cast<float>(
                        simd::Sum(g + (b * Cout + co) * Lout, Lout));
                  }
                }
              });
}

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n) {
  ParallelFor(0, m, RowGrain(m, k * n), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      simd::ConvRowAccum(b, /*xstride=*/n, a + i * k, /*cin=*/k, /*taps=*/1,
                         /*dilation=*/0, c + i * n, n);
    }
  });
}

void GemmTransA(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n) {
  // Column i of A gathered into a contiguous stack of tap weights turns the
  // row update into one register-blocked ConvRowAccum (taps=1) instead of k
  // separate axpy passes over the row. ConvRowAccum applies the k terms per
  // element in ascending p order with the same zero-skips — the axpy
  // formulation's exact chain.
  ParallelFor(0, m, RowGrain(m, k * n), [&](int64_t begin, int64_t end) {
    std::vector<float> acol(static_cast<size_t>(k));
    for (int64_t i = begin; i < end; ++i) {
      for (int64_t p = 0; p < k; ++p) acol[static_cast<size_t>(p)] = a[p * m + i];
      simd::ConvRowAccum(b, /*xstride=*/n, acol.data(), /*cin=*/k, /*taps=*/1,
                         /*dilation=*/0, c + i * n, n);
    }
  });
}

void GemmTransB(const float* a, const float* b, float* c, int64_t m, int64_t n,
                int64_t k) {
  // Output columns pair up so each DotPair shares the A-row loads; every
  // dot keeps simd::Dot's exact accumulation chain.
  ParallelFor(0, m, RowGrain(m, n * k), [&](int64_t begin, int64_t end) {
    double out2[2];
    for (int64_t i = begin; i < end; ++i) {
      const float* arow = a + i * n;
      float* crow = c + i * k;
      int64_t p = 0;
      for (; p + 2 <= k; p += 2) {
        simd::DotPair(arow, b + p * n, b + (p + 1) * n, n, out2);
        crow[p] += static_cast<float>(out2[0]);
        crow[p + 1] += static_cast<float>(out2[1]);
      }
      for (; p < k; ++p) {
        crow[p] += static_cast<float>(simd::Dot(arow, b + p * n, n));
      }
    }
  });
}

}  // namespace triad::nn::kernels
