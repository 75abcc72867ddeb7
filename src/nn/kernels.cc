#include "nn/kernels.h"

#include <algorithm>

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

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Gradient rows per ConvTapDotTile call in the weight gradient: the
// vector tier's register tile at up to three taps.
constexpr int64_t kDotRows = 4;
// GemmTransB's tile: A rows x B rows per ConvTapDotTile call, the vector
// tier's register tile at four taps.
constexpr int64_t kTransBRows = 3;
constexpr int64_t kTransBCols = 4;

}  // namespace

void Conv1dForward(const float* xpad, const float* w, const float* bias,
                   float* out, int64_t B, int64_t Cin, int64_t Cout, int64_t K,
                   int64_t Lpad, int64_t Lout, int64_t dilation) {
  // Implicit im2col: the taps are read straight from the padded input by
  // ConvRowsAccum, which blocks kRowBlock channels so each input load
  // feeds all of them. A materialized [Cin*K, B*Lout] column matrix
  // measured strictly slower — see ARCHITECTURE.md §11. Channel blocks fan
  // across the pool; per element the Cin*K taps apply in (ci, k) order,
  // skipping zero weights, on top of the bias.
  const int64_t blocks = CeilDiv(Cout, simd::kRowBlock);
  ParallelFor(0, blocks,
              RowGrain(blocks, simd::kRowBlock * B * Cin * K * Lout),
              [&](int64_t begin, int64_t end) {
                const int64_t co0 = begin * simd::kRowBlock;
                const int64_t rows =
                    std::min(end * simd::kRowBlock, Cout) - co0;
                for (int64_t b = 0; b < B; ++b) {
                  float* orows = out + (b * Cout + co0) * Lout;
                  for (int64_t r = 0; r < rows; ++r) {
                    const float bv = bias != nullptr ? bias[co0 + r] : 0.0f;
                    std::fill(orows + r * Lout, orows + (r + 1) * Lout, bv);
                  }
                  simd::ConvRowsAccum(xpad + b * Cin * Lpad, Lpad,
                                      w + co0 * Cin * K, Cin * K, 1, Cin, K,
                                      dilation, orows, Lout, rows, Lout);
                }
              });
}

void Conv1dBackwardInput(const float* g, const float* w, float* gxpad,
                         int64_t B, int64_t Cin, int64_t Cout, int64_t K,
                         int64_t Lpad, int64_t Lout, int64_t dilation) {
  // Each block of kRowBlock (b, ci) rows of gxpad is independent and runs
  // as one CorrRowsAccum sharing each gradient load across its rows: the
  // Cout*K scatter terms apply per element in (co, k) order — the chain of
  // one simd::Axpy pass per nonzero tap. Lpad == Lout + (K-1)*dilation,
  // so the kernel's output rows are exactly the gxpad rows.
  const int64_t per_b = CeilDiv(Cin, simd::kRowBlock);
  const int64_t blocks = B * per_b;
  ParallelFor(0, blocks,
              RowGrain(blocks, simd::kRowBlock * Cout * K * Lout),
              [&](int64_t begin, int64_t end) {
                for (int64_t blk = begin; blk < end; ++blk) {
                  const int64_t b = blk / per_b;
                  const int64_t ci0 = (blk % per_b) * simd::kRowBlock;
                  const int64_t rows = std::min(simd::kRowBlock, Cin - ci0);
                  simd::CorrRowsAccum(g + b * Cout * Lout, Lout, w + ci0 * K,
                                      K, Cin * K, Cout, K, dilation,
                                      gxpad + (b * Cin + ci0) * Lpad, Lpad,
                                      rows, Lout);
                }
              });
}

void Conv1dBackwardWeight(const float* g, const float* xpad, float* gw,
                          int64_t B, int64_t Cin, int64_t Cout, int64_t K,
                          int64_t Lpad, int64_t Lout, int64_t dilation) {
  // Each slice of kDotRows output channels is independent. Per (ci, b)
  // one ConvTapDotTile computes the slice's dots against all K windows of
  // the input row, sharing the converted windows and gradient blocks;
  // every dot is bit-identical to simd::Dot, and per element gw[co,ci,k]
  // the B partials add in ascending b order.
  const int64_t blocks = CeilDiv(Cout, kDotRows);
  ParallelFor(0, blocks, RowGrain(blocks, kDotRows * B * Cin * K * Lout),
              [&](int64_t begin, int64_t end) {
                double dots[kDotRows * 8];
                for (int64_t blk = begin; blk < end; ++blk) {
                  const int64_t co0 = blk * kDotRows;
                  const int64_t rows = std::min(kDotRows, Cout - co0);
                  for (int64_t ci = 0; ci < Cin; ++ci) {
                    for (int64_t b = 0; b < B; ++b) {
                      const float* grows = g + (b * Cout + co0) * Lout;
                      const float* xrow = xpad + (b * Cin + ci) * Lpad;
                      for (int64_t k0 = 0; k0 < K; k0 += 8) {
                        const int64_t taps = std::min<int64_t>(8, K - k0);
                        simd::ConvTapDotTile(xrow + k0 * dilation, grows, Lout,
                                             rows, taps, dilation, Lout, dots);
                        for (int64_t r = 0; r < rows; ++r) {
                          float* wrow = gw + ((co0 + r) * Cin + ci) * K + k0;
                          for (int64_t t = 0; t < taps; ++t) {
                            wrow[t] += static_cast<float>(dots[r * taps + t]);
                          }
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
  // Row i of A is the weight list of output row i, the rows of B its
  // inputs (taps = 1, dilation = 0); blocks of kRowBlock rows share each
  // B load.
  const int64_t blocks = CeilDiv(m, simd::kRowBlock);
  ParallelFor(0, blocks, RowGrain(blocks, simd::kRowBlock * k * n),
              [&](int64_t begin, int64_t end) {
                const int64_t i0 = begin * simd::kRowBlock;
                const int64_t rows = std::min(end * simd::kRowBlock, m) - i0;
                simd::ConvRowsAccum(b, /*xstride=*/n, a + i0 * k, /*wrow=*/k,
                                    /*wterm=*/1, /*cin=*/k, /*taps=*/1,
                                    /*dilation=*/0, c + i0 * n, n, rows, n);
              });
}

void GemmTransA(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n) {
  // As Gemm, with output row i's weights read in place down column i of A
  // (wrow = 1, wterm = m): each row accumulates its k terms in ascending
  // p order with the same zero-skips — the axpy formulation's exact chain.
  const int64_t blocks = CeilDiv(m, simd::kRowBlock);
  ParallelFor(0, blocks, RowGrain(blocks, simd::kRowBlock * k * n),
              [&](int64_t begin, int64_t end) {
                const int64_t i0 = begin * simd::kRowBlock;
                const int64_t rows = std::min(end * simd::kRowBlock, m) - i0;
                simd::ConvRowsAccum(b, /*xstride=*/n, a + i0, /*wrow=*/1,
                                    /*wterm=*/m, /*cin=*/k, /*taps=*/1,
                                    /*dilation=*/0, c + i0 * n, n, rows, n);
              });
}

void GemmTransB(const float* a, const float* b, float* c, int64_t m, int64_t n,
                int64_t k) {
  // A tile of kTransBRows A rows x kTransBCols B rows is one
  // ConvTapDotTile: the B rows are its "taps" (dilation = n, the row
  // stride), so each converted A block feeds kTransBCols dots and each
  // converted B block feeds kTransBRows. Dot is bitwise symmetric in its
  // operands, so every output keeps simd::Dot(a_i, b_p)'s exact chain.
  ParallelFor(0, m, RowGrain(m, n * k), [&](int64_t begin, int64_t end) {
    double dots[kTransBRows * kTransBCols];
    for (int64_t i0 = begin; i0 < end; i0 += kTransBRows) {
      const int64_t rows = std::min(kTransBRows, end - i0);
      for (int64_t p0 = 0; p0 < k; p0 += kTransBCols) {
        const int64_t cols = std::min(kTransBCols, k - p0);
        simd::ConvTapDotTile(b + p0 * n, a + i0 * n, n, rows, cols,
                             /*dilation=*/n, n, dots);
        for (int64_t r = 0; r < rows; ++r) {
          float* crow = c + (i0 + r) * k + p0;
          for (int64_t t = 0; t < cols; ++t) {
            crow[t] += static_cast<float>(dots[r * cols + t]);
          }
        }
      }
    }
  });
}

}  // namespace triad::nn::kernels
