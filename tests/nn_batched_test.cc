// Equivalence and gradient tests for the nn execution path: the
// whole-batch kernels of nn/kernels.h behind Conv1d and MatMul, and the
// fused elementwise chains of nn/fused.h behind AddRelu and
// L2NormalizeLastDim.
//
// The contract under test (ARCHITECTURE.md §11): per output element every
// kernel applies exactly the chain of simd::Axpy / Dot / Sum terms of a
// plain serial loop, and every fused op exactly the per-element IEEE
// sequence of the composite it replaces — at both SIMD tiers and at any
// thread count, in the forward values and in every accumulated gradient.
// The kernels block several output rows per pass and add -0.0f where a
// row skips a term; the serial loops below, the Ref* oracles, do neither,
// so the assertions here are exact bit equality (any NaN matching any
// NaN), not ULP bounds. The
// kernel-level cases cover the shapes training runs (16 -> 16 channels
// at every Lout % 8 residue, the projection head's GEMMs with ReLU'd,
// half-zero activations), ragged channel blocks, short rows, and inputs
// holding ±inf, NaN and -0.0.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "nn/grad_check.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "nn/ops.h"

namespace triad::nn {
namespace {

// ---------- serial reference kernels (the oracle) ----------
//
// Each applies its terms one simd::Axpy / Dot / Sum call at a time in the
// plain loop order, so at the active SIMD tier it computes exactly the
// per-element arithmetic the nn/kernels.h kernels must reproduce — and
// none of them calls the blocked primitives (ConvRowsAccum,
// CorrRowsAccum, ConvTapDotTile) those kernels are built on, so a chain
// change inside one cannot move its own oracle. The `av == 0` / `wv == 0`
// skips are part of the chain (skipping a term is not the same as adding
// a zero product: -0.0f + 0.0f is +0.0f, and 0 * inf is NaN); the kernels
// skip the same terms.

void RefGemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      simd::Axpy(av, b + p * n, c + i * n, n);
    }
  }
}

void RefGemmTransA(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n) {
  for (int64_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      simd::Axpy(av, brow, c + i * n, n);
    }
  }
}

void RefGemmTransB(const float* a, const float* b, float* c, int64_t m,
                   int64_t n, int64_t k) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * n;
    float* crow = c + i * k;
    for (int64_t p = 0; p < k; ++p) {
      crow[p] += static_cast<float>(simd::Dot(arow, b + p * n, n));
    }
  }
}

// Accumulates into `out`, which the caller pre-fills with the bias (or
// zeros).
void RefConv1dForward(const float* xpad, const float* w, float* out,
                      int64_t B, int64_t Cin, int64_t Cout, int64_t K,
                      int64_t Lpad, int64_t Lout, int64_t dilation) {
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t co = 0; co < Cout; ++co) {
      float* orow = out + (b * Cout + co) * Lout;
      for (int64_t ci = 0; ci < Cin; ++ci) {
        const float* xrow = xpad + (b * Cin + ci) * Lpad;
        const float* wrow = w + (co * Cin + ci) * K;
        for (int64_t k = 0; k < K; ++k) {
          const float wv = wrow[k];
          if (wv == 0.0f) continue;
          simd::Axpy(wv, xrow + k * dilation, orow, Lout);
        }
      }
    }
  }
}

void RefConv1dBackwardInput(const float* g, const float* w, float* gxpad,
                            int64_t B, int64_t Cin, int64_t Cout, int64_t K,
                            int64_t Lpad, int64_t Lout, int64_t dilation) {
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t co = 0; co < Cout; ++co) {
      const float* grow = g + (b * Cout + co) * Lout;
      for (int64_t ci = 0; ci < Cin; ++ci) {
        float* xrow = gxpad + (b * Cin + ci) * Lpad;
        const float* wrow = w + (co * Cin + ci) * K;
        for (int64_t k = 0; k < K; ++k) {
          const float wv = wrow[k];
          if (wv == 0.0f) continue;
          simd::Axpy(wv, grow, xrow + k * dilation, Lout);
        }
      }
    }
  }
}

void RefConv1dBackwardWeight(const float* g, const float* xpad, float* gw,
                             int64_t B, int64_t Cin, int64_t Cout, int64_t K,
                             int64_t Lpad, int64_t Lout, int64_t dilation) {
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t co = 0; co < Cout; ++co) {
      const float* grow = g + (b * Cout + co) * Lout;
      for (int64_t ci = 0; ci < Cin; ++ci) {
        const float* xrow = xpad + (b * Cin + ci) * Lpad;
        float* wrow = gw + (co * Cin + ci) * K;
        for (int64_t k = 0; k < K; ++k) {
          wrow[k] +=
              static_cast<float>(simd::Dot(xrow + k * dilation, grow, Lout));
        }
      }
    }
  }
}

void RefConv1dBackwardBias(const float* g, float* gb, int64_t B, int64_t Cout,
                           int64_t Lout) {
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t co = 0; co < Cout; ++co) {
      gb[co] += static_cast<float>(simd::Sum(g + (b * Cout + co) * Lout, Lout));
    }
  }
}

// ---------- helpers ----------

using Leaves = std::vector<Var>;
/// {forward value, leaf gradients...}
using Outputs = std::vector<Tensor>;
using Builder = std::function<Var(const Leaves&)>;

void ExpectBitEqual(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(a[i]), std::bit_cast<uint32_t>(b[i]))
        << what << " diverges at flat index " << i << ": " << a[i] << " vs "
        << b[i];
  }
}

// Fixed pseudo-random positive weights, so gradients are asymmetric (a
// plain sum would hide transposition bugs).
Tensor LossWeights(const std::vector<int64_t>& shape) {
  Tensor w(shape);
  for (int64_t i = 0; i < w.size(); ++i) {
    w[i] = 0.2f + 0.1f * static_cast<float>((i * 2654435761u) % 13);
  }
  return w;
}

// Projects to a scalar; the gradient it sends back into `v` is exactly
// LossWeights(v.shape()).
Var WeightedSum(const Var& v) {
  return SumAll(Mul(v, Constant(LossWeights(v.shape()))));
}

// Mean-scaled loss for finite-difference grad checks: float32 FD noise is
// proportional to |loss|, so a SumAll over a few hundred elements drowns
// tiny true gradients (saturated tanh, normalize projections) in rounding
// noise. Keeping the loss O(1) keeps the noise below MaxGradError's `tol`.
Var GradCheckLoss(const Var& v) {
  int64_t n = 1;
  for (const int64_t d : v.shape()) n *= d;
  return MulScalar(WeightedSum(v), 1.0f / static_cast<float>(n));
}

// What a leaf's grad() holds after one backward pass delivered `delta`:
// Node::AccumulateGrad adds into zeros (which turns -0.0f into +0.0f).
Tensor AsLeafGrad(const Tensor& delta) {
  Tensor g = Tensor::Zeros(delta.shape());
  g.AddInPlace(delta);
  return g;
}

bool BestTierIsVector() {
  return simd::HighestSupportedLevel() != simd::Level::kScalar;
}

// Runs `build`, backprops a weighted-sum loss, and returns the outputs.
Outputs RunGraph(const Leaves& leaves, const Builder& build) {
  for (const auto& l : leaves) l.ZeroGrad();
  Var out = build(leaves);
  WeightedSum(out).Backward();
  Outputs result = {out.value()};
  for (const auto& l : leaves) result.push_back(l.grad());
  return result;
}

// At the scalar tier and (when available) the vector tier, runs `build` on
// a 1-lane and on a 4-lane pool and expects its outputs to equal
// `reference`'s bit for bit. `reference` runs at the same tier on the
// 1-lane pool.
void ExpectMatchesReferenceEverywhere(
    const Leaves& leaves, const Builder& build,
    const std::function<Outputs(const Leaves&)>& reference) {
  ThreadPool serial(1), quad(4);
  for (const bool vector_tier : {false, true}) {
    if (vector_tier && !BestTierIsVector()) continue;
    simd::ScopedForceLevel tier(vector_tier ? simd::HighestSupportedLevel()
                                            : simd::Level::kScalar);
    Outputs want;
    {
      ScopedDefaultPool scoped(&serial);
      want = reference(leaves);
    }
    for (ThreadPool* pool : {&serial, &quad}) {
      ScopedDefaultPool scoped(pool);
      SCOPED_TRACE(testing::Message()
                   << (vector_tier ? "vector" : "scalar") << " tier, "
                   << pool->num_threads() << " lanes");
      const Outputs got = RunGraph(leaves, build);
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        ExpectBitEqual(want[i], got[i],
                       i == 0 ? "forward value" : "leaf gradient");
      }
    }
  }
}

// Conv1d's forward value and leaf gradients {x, w, bias} under the
// WeightedSum loss, computed by the Ref* kernels straight from the leaves.
Outputs RefConv1dOutputs(const Leaves& l, int64_t dilation, int64_t pad_left,
                         int64_t pad_right) {
  const Tensor& x = l[0].value();
  const Tensor& w = l[1].value();
  const Tensor& bias = l[2].value();
  const int64_t B = x.dim(0), Cin = x.dim(1), L = x.dim(2);
  const int64_t Cout = w.dim(0), K = w.dim(2);
  const int64_t Lpad = L + pad_left + pad_right;
  const int64_t Lout = Lpad - dilation * (K - 1);
  Tensor xpad({B, Cin, Lpad});
  for (int64_t r = 0; r < B * Cin; ++r) {
    for (int64_t t = 0; t < L; ++t) xpad[r * Lpad + pad_left + t] = x[r * L + t];
  }
  Tensor out({B, Cout, Lout});
  for (int64_t r = 0; r < B * Cout; ++r) {
    for (int64_t t = 0; t < Lout; ++t) out[r * Lout + t] = bias[r % Cout];
  }
  RefConv1dForward(xpad.data(), w.data(), out.data(), B, Cin, Cout, K, Lpad,
                   Lout, dilation);

  const Tensor g = LossWeights(out.shape());
  Tensor gxpad({B, Cin, Lpad});
  RefConv1dBackwardInput(g.data(), w.data(), gxpad.data(), B, Cin, Cout, K,
                         Lpad, Lout, dilation);
  Tensor gx({B, Cin, L});
  for (int64_t r = 0; r < B * Cin; ++r) {
    for (int64_t t = 0; t < L; ++t) gx[r * L + t] = gxpad[r * Lpad + pad_left + t];
  }
  Tensor gw({Cout, Cin, K});
  RefConv1dBackwardWeight(g.data(), xpad.data(), gw.data(), B, Cin, Cout, K,
                          Lpad, Lout, dilation);
  Tensor gb({Cout});
  RefConv1dBackwardBias(g.data(), gb.data(), B, Cout, Lout);
  return {out, AsLeafGrad(gx), AsLeafGrad(gw), AsLeafGrad(gb)};
}

// MatMul's forward value and leaf gradients {a, b} for [m,k] x [k,n] or
// [bsz,m,k] x [k,n], as one Ref* call per batch slice.
Outputs RefMatMulOutputs(const Leaves& l) {
  const Tensor& a = l[0].value();
  const Tensor& b = l[1].value();
  const int64_t bsz = a.ndim() == 3 ? a.dim(0) : 1;
  const int64_t m = a.dim(a.ndim() - 2), k = a.dim(a.ndim() - 1);
  const int64_t n = b.dim(1);
  std::vector<int64_t> out_shape = a.shape();
  out_shape.back() = n;
  Tensor out(out_shape);
  for (int64_t i = 0; i < bsz; ++i) {
    RefGemm(a.data() + i * m * k, b.data(), out.data() + i * m * n, m, k, n);
  }
  const Tensor g = LossWeights(out.shape());
  Tensor da(a.shape());
  Tensor db(b.shape());
  for (int64_t i = 0; i < bsz; ++i) {
    RefGemmTransB(g.data() + i * m * n, b.data(), da.data() + i * m * k, m, n,
                  k);
  }
  for (int64_t i = 0; i < bsz; ++i) {
    RefGemmTransA(a.data() + i * m * k, g.data() + i * m * n, db.data(), k, m,
                  n);
  }
  return {out, AsLeafGrad(da), AsLeafGrad(db)};
}

// The six-op composite L2NormalizeLastDim fuses.
Var CompositeL2Normalize(const Var& a, float eps = 1e-8f) {
  const int axis = a.value().ndim() - 1;
  Var norm = Sqrt(AddScalar(Sum(Square(a), axis, /*keepdim=*/true), eps));
  return Div(a, ExpandLastDim(norm, a.shape().back()));
}

// ---------- kernel-level equivalence ----------

// The forward gathers taps implicitly (no materialized im2col matrix); this
// pins the strided reads against a naive per-element gather.
TEST(BatchedKernelTest, ImplicitIm2ColForwardGathersTaps) {
  Rng rng(11);
  const int64_t B = 3, Cin = 2, Cout = 4, K = 3, Lpad = 12, dilation = 2;
  const int64_t Lout = Lpad - dilation * (K - 1);
  Tensor xpad = Tensor::Randn({B, Cin, Lpad}, &rng);
  Tensor w = Tensor::Randn({Cout, Cin, K}, &rng);
  Tensor got({B, Cout, Lout});
  kernels::Conv1dForward(xpad.data(), w.data(), /*bias=*/nullptr, got.data(),
                         B, Cin, Cout, K, Lpad, Lout, dilation);
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t co = 0; co < Cout; ++co) {
      for (int64_t t = 0; t < Lout; ++t) {
        float want = 0.0f;
        for (int64_t ci = 0; ci < Cin; ++ci) {
          for (int64_t k = 0; k < K; ++k) {
            want += w[(co * Cin + ci) * K + k] *
                    xpad[(b * Cin + ci) * Lpad + t + k * dilation];
          }
        }
        EXPECT_EQ(want, got[(b * Cout + co) * Lout + t])
            << "b=" << b << " co=" << co << " t=" << t;
      }
    }
  }
}

struct GemmShape {
  int64_t m, k, n;
};

// Exact bit equality, except that any NaN matches any NaN: which NaN
// payload survives an add of two NaNs depends on operand order in the
// hardware, which is not part of the chain.
void ExpectSameFloats(const Tensor& want, const Tensor& got, const char* what) {
  ASSERT_EQ(want.shape(), got.shape()) << what;
  for (int64_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i]) && std::isnan(got[i])) continue;
    ASSERT_EQ(std::bit_cast<uint32_t>(want[i]), std::bit_cast<uint32_t>(got[i]))
        << what << " diverges at flat index " << i << ": " << want[i]
        << " vs " << got[i];
  }
}

// What the encoder's ReLU leaves behind: about half the entries exact
// zeros (+0.0 and -0.0 alike), the rest positive.
Tensor ReluLike(const std::vector<int64_t>& shape, Rng* rng) {
  Tensor t = Tensor::Randn(shape, rng);
  for (int64_t i = 0; i < t.size(); ++i) {
    if (t[i] <= 0.0f) t[i] = (i % 3 == 0) ? -0.0f : 0.0f;
  }
  return t;
}

// Plants ±inf, NaN and -0.0 at fixed spread-out positions.
void PlantSpecials(Tensor* t) {
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(), -0.0f};
  const int64_t n = t->size();
  for (int64_t i = 0; i < 4 && i < n; ++i) {
    (*t)[(i * 7919 + n / 3) % n] = specials[i];
  }
}

// Runs `check` at the scalar tier and (when available) the vector tier,
// each on a 1-lane and a 4-lane pool.
void AtEveryTierAndPool(const std::function<void()>& check) {
  ThreadPool serial(1), quad(4);
  for (const bool vector_tier : {false, true}) {
    if (vector_tier && !BestTierIsVector()) continue;
    simd::ScopedForceLevel tier(vector_tier ? simd::HighestSupportedLevel()
                                            : simd::Level::kScalar);
    for (ThreadPool* pool : {&serial, &quad}) {
      ScopedDefaultPool scoped(pool);
      SCOPED_TRACE(testing::Message()
                   << (vector_tier ? "vector" : "scalar") << " tier, "
                   << pool->num_threads() << " lanes");
      check();
    }
  }
}

struct GemmCase {
  GemmShape shape;
  bool relu_a;    // A (and GemmTransA's A) about half exact zeros
  bool specials;  // ±inf, NaN and -0.0 planted in every operand
};

TEST(BatchedKernelTest, GemmKernelsMatchReferenceBitExact) {
  const std::vector<GemmCase> cases = {
      {{1, 1, 1}, false, false},   {{3, 5, 7}, false, false},
      {{16, 32, 9}, false, false}, {{33, 8, 65}, false, false},
      {{64, 32, 120}, false, false},
      // The projection head at archive_batch's shape: m = B*L = 8*143,
      // k = 16, n = 16 (head1) and n = 1 (head2), on ReLU'd activations.
      {{1144, 16, 16}, true, false}, {{1144, 16, 1}, true, false},
      // Ragged row blocks and every column tail, with special values.
      {{7, 6, 13}, true, true},    {{5, 9, 1}, false, true},
      {{10, 16, 24}, true, true}};
  AtEveryTierAndPool([&] {
    Rng rng(12);
    for (const auto& [shape, relu_a, specials] : cases) {
      const auto [m, k, n] = shape;
      SCOPED_TRACE(testing::Message() << "m=" << m << " k=" << k << " n=" << n
                                      << (relu_a ? " relu" : "")
                                      << (specials ? " specials" : ""));
      Tensor a = relu_a ? ReluLike({m, k}, &rng) : Tensor::Randn({m, k}, &rng);
      Tensor b = Tensor::Randn({k, n}, &rng);
      a[0] = 0.0f;  // exercise the zero-skip
      if (specials) {
        PlantSpecials(&a);
        PlantSpecials(&b);
      }
      Tensor want({m, n}), got({m, n});
      RefGemm(a.data(), b.data(), want.data(), m, k, n);
      kernels::Gemm(a.data(), b.data(), got.data(), m, k, n);
      ExpectSameFloats(want, got, "Gemm");

      // C[m,n] += A[k,m]^T B[k,n]: the head's weight gradient reads the
      // ReLU'd activations as A with k = B*L, so swap m and k for it.
      const int64_t tm = relu_a && m > k ? k : m;
      const int64_t tk = relu_a && m > k ? m : k;
      Tensor ta = relu_a ? ReluLike({tk, tm}, &rng) : Tensor::Randn({tk, tm}, &rng);
      Tensor tb = Tensor::Randn({tk, n}, &rng);
      ta[0] = 0.0f;
      if (specials) {
        PlantSpecials(&ta);
        PlantSpecials(&tb);
      }
      Tensor wantTA({tm, n}), gotTA({tm, n});
      RefGemmTransA(ta.data(), tb.data(), wantTA.data(), tm, tk, n);
      kernels::GemmTransA(ta.data(), tb.data(), gotTA.data(), tm, tk, n);
      ExpectSameFloats(wantTA, gotTA, "GemmTransA");

      // C[m,k] += A[m,n] B[k,n]^T with the dot over n — the head's input
      // gradient when n is 16 or 1.
      Tensor at = Tensor::Randn({m, n}, &rng);
      Tensor bt = Tensor::Randn({k, n}, &rng);
      if (specials) {
        PlantSpecials(&at);
        PlantSpecials(&bt);
      }
      Tensor wantTB({m, k}), gotTB({m, k});
      RefGemmTransB(at.data(), bt.data(), wantTB.data(), m, n, k);
      kernels::GemmTransB(at.data(), bt.data(), gotTB.data(), m, n, k);
      ExpectSameFloats(wantTB, gotTB, "GemmTransB");
    }
  });
}

struct ConvShape {
  int64_t B, Cin, Cout, K, L, dilation;
};

// All four conv kernels against the Ref* oracles at one shape. `specials`
// plants ±inf, NaN and -0.0 in the input, weights and gradient, gives
// channel 1 all-zero weights and a -0.0 bias (so its output must stay
// -0.0 whatever the input holds), and makes every third weight zero.
void ExpectConvKernelsMatchReference(const ConvShape& shape, bool specials,
                                     Rng* rng) {
  const auto [B, Cin, Cout, K, L, dilation] = shape;
  SCOPED_TRACE(testing::Message()
               << "B=" << B << " Cin=" << Cin << " Cout=" << Cout
               << " K=" << K << " L=" << L << " dilation=" << dilation
               << (specials ? " specials" : ""));
  const int64_t span = dilation * (K - 1);
  const int64_t Lpad = L + span;
  const int64_t Lout = L;
  Tensor xpad = Tensor::Randn({B, Cin, Lpad}, rng);
  Tensor w = Tensor::Randn({Cout, Cin, K}, rng);
  w[0] = 0.0f;  // exercise the zero-weight skip
  Tensor bias = Tensor::Randn({Cout}, rng);
  Tensor g = Tensor::Randn({B, Cout, Lout}, rng);
  if (specials) {
    PlantSpecials(&xpad);
    PlantSpecials(&g);
    for (int64_t i = 0; i < w.size(); i += 3) w[i] = (i % 2) ? -0.0f : 0.0f;
    if (Cout > 1) {
      for (int64_t i = Cin * K; i < 2 * Cin * K; ++i) w[i] = 0.0f;
      bias[1] = -0.0f;
    }
    bias[0] = -0.0f;
  }

  // Forward, with and without a bias. The NaN sentinel shows that the
  // kernel writes every output element.
  for (const bool with_bias : {true, false}) {
    Tensor want({B, Cout, Lout});
    for (int64_t r = 0; r < B * Cout; ++r) {
      for (int64_t t = 0; t < Lout; ++t) {
        want[r * Lout + t] = with_bias ? bias[r % Cout] : 0.0f;
      }
    }
    RefConv1dForward(xpad.data(), w.data(), want.data(), B, Cin, Cout, K,
                     Lpad, Lout, dilation);
    Tensor got = Tensor::Full({B, Cout, Lout},
                              std::numeric_limits<float>::quiet_NaN());
    kernels::Conv1dForward(xpad.data(), w.data(),
                           with_bias ? bias.data() : nullptr, got.data(), B,
                           Cin, Cout, K, Lpad, Lout, dilation);
    ExpectSameFloats(want, got, "Conv1dForward");
    if (specials && with_bias && Cout > 1) {
      for (int64_t b = 0; b < B; ++b) {
        for (int64_t t = 0; t < Lout; ++t) {
          ASSERT_EQ(std::bit_cast<uint32_t>(got[(b * Cout + 1) * Lout + t]),
                    std::bit_cast<uint32_t>(-0.0f))
              << "an all-zero-weight channel must keep its -0.0 bias";
        }
      }
    }
  }

  // Input gradient.
  Tensor gx_want({B, Cin, Lpad}), gx_got({B, Cin, Lpad});
  RefConv1dBackwardInput(g.data(), w.data(), gx_want.data(), B, Cin, Cout, K,
                         Lpad, Lout, dilation);
  kernels::Conv1dBackwardInput(g.data(), w.data(), gx_got.data(), B, Cin, Cout,
                               K, Lpad, Lout, dilation);
  ExpectSameFloats(gx_want, gx_got, "Conv1dBackwardInput");

  // Weight gradient.
  Tensor gw_want({Cout, Cin, K}), gw_got({Cout, Cin, K});
  RefConv1dBackwardWeight(g.data(), xpad.data(), gw_want.data(), B, Cin, Cout,
                          K, Lpad, Lout, dilation);
  kernels::Conv1dBackwardWeight(g.data(), xpad.data(), gw_got.data(), B, Cin,
                                Cout, K, Lpad, Lout, dilation);
  ExpectSameFloats(gw_want, gw_got, "Conv1dBackwardWeight");

  // Bias gradient.
  Tensor gb_want({Cout}), gb_got({Cout});
  RefConv1dBackwardBias(g.data(), gb_want.data(), B, Cout, Lout);
  kernels::Conv1dBackwardBias(g.data(), gb_got.data(), B, Cout, Lout);
  ExpectSameFloats(gb_want, gb_got, "Conv1dBackwardBias");
}

TEST(BatchedKernelTest, ConvKernelsMatchReferenceBitExact) {
  std::vector<ConvShape> shapes = {{1, 1, 1, 1, 4, 1},
                                   {2, 1, 4, 3, 16, 1},
                                   {3, 3, 8, 3, 33, 2},
                                   {4, 8, 8, 3, 64, 4},
                                   {8, 2, 5, 5, 40, 2},
                                   // Channel counts off the 4-row blocks,
                                   // K in {1, 2, 3, 5}.
                                   {2, 5, 7, 1, 29, 1},
                                   {3, 6, 3, 2, 21, 3},
                                   {2, 7, 6, 3, 45, 2},
                                   {2, 3, 9, 5, 52, 1},
                                   // Lout < (K-1)*dilation: rows that are
                                   // all edge.
                                   {2, 3, 5, 5, 3, 4},
                                   {1, 2, 6, 3, 5, 4},
                                   {2, 5, 2, 2, 1, 3}};
  // The encoder's 16 -> 16 blocks at K = 3, dilation 1/2/4, at every
  // Lout % 8 residue (archive_batch's windows are 143 long).
  for (const int64_t dilation : {1, 2, 4}) {
    for (int64_t L = 136; L < 144; ++L) shapes.push_back({3, 16, 16, 3, L, dilation});
  }
  AtEveryTierAndPool([&] {
    Rng rng(13);
    for (const ConvShape& shape : shapes) {
      ExpectConvKernelsMatchReference(shape, /*specials=*/false, &rng);
    }
    for (const ConvShape& shape : {ConvShape{2, 5, 6, 3, 37, 2},
                                   ConvShape{1, 4, 5, 2, 19, 1},
                                   ConvShape{2, 3, 3, 5, 6, 2}}) {
      ExpectConvKernelsMatchReference(shape, /*specials=*/true, &rng);
    }
  });
}

// ---------- op/graph-level equivalence ----------

TEST(BatchedOpsTest, Conv1dBatchedVsReferenceBitIdentical) {
  Rng rng(21);
  const std::vector<ConvShape> shapes = {{2, 1, 4, 3, 16, 1},
                                         {3, 3, 8, 3, 20, 2},
                                         {4, 8, 8, 3, 32, 4},
                                         {1, 2, 2, 1, 7, 1}};
  for (const auto& [B, Cin, Cout, K, L, dilation] : shapes) {
    const int64_t span = dilation * (K - 1);
    Leaves leaves = {
        Var(Tensor::Randn({B, Cin, L}, &rng), /*requires_grad=*/true),
        Var(Tensor::Randn({Cout, Cin, K}, &rng), /*requires_grad=*/true),
        Var(Tensor::Randn({Cout}, &rng), /*requires_grad=*/true)};
    const int64_t pl = span / 2, pr = span - span / 2;
    ExpectMatchesReferenceEverywhere(
        leaves,
        [=](const Leaves& l) {
          return Conv1d(l[0], l[1], l[2], dilation, pl, pr);
        },
        [=](const Leaves& l) {
          return RefConv1dOutputs(l, dilation, pl, pr);
        });
  }
}

TEST(BatchedOpsTest, MatMulBatchedVsReferenceBitIdentical) {
  Rng rng(22);
  const auto matmul = [](const Leaves& l) { return MatMul(l[0], l[1]); };
  // 2D x 2D.
  const std::vector<GemmShape> shapes2d = {{2, 3, 4}, {8, 16, 8}, {33, 7, 9}};
  for (const auto& [m, k, n] : shapes2d) {
    Leaves leaves = {Var(Tensor::Randn({m, k}, &rng), /*requires_grad=*/true),
                     Var(Tensor::Randn({k, n}, &rng), /*requires_grad=*/true)};
    ExpectMatchesReferenceEverywhere(leaves, matmul, RefMatMulOutputs);
  }
  // 3D x 2D: the shared right operand flattens into one [bsz*m, k] product,
  // checked against one reference product per batch slice.
  struct BatchedShape {
    int64_t bsz, m, k, n;
  };
  const std::vector<BatchedShape> shapes3d = {
      {2, 4, 3, 5}, {5, 16, 8, 8}, {3, 9, 33, 2}};
  for (const auto& [bsz, m, k, n] : shapes3d) {
    Leaves leaves = {
        Var(Tensor::Randn({bsz, m, k}, &rng), /*requires_grad=*/true),
        Var(Tensor::Randn({k, n}, &rng), /*requires_grad=*/true)};
    ExpectMatchesReferenceEverywhere(leaves, matmul, RefMatMulOutputs);
  }
}

TEST(BatchedOpsTest, AddReluFusedVsCompositeBitIdentical) {
  Rng rng(23);
  const auto fused = [](const Leaves& l) { return AddRelu(l[0], l[1]); };
  const auto composite = [](const Leaves& l) {
    return RunGraph(l, [](const Leaves& v) { return Relu(Add(v[0], v[1])); });
  };
  // Same-shape (residual add -> relu).
  ExpectMatchesReferenceEverywhere(
      {Var(Tensor::Randn({4, 8, 16}, &rng), /*requires_grad=*/true),
       Var(Tensor::Randn({4, 8, 16}, &rng), /*requires_grad=*/true)},
      fused, composite);
  // Suffix broadcast (bias add -> relu).
  ExpectMatchesReferenceEverywhere(
      {Var(Tensor::Randn({3, 5, 8}, &rng), /*requires_grad=*/true),
       Var(Tensor::Randn({8}, &rng), /*requires_grad=*/true)},
      fused, composite);
}

TEST(BatchedOpsTest, L2NormalizeFusedVsCompositeBitIdentical) {
  Rng rng(24);
  struct RowShape {
    int64_t rows, n;
  };
  const std::vector<RowShape> shapes = {{1, 1}, {4, 16}, {9, 33}};
  for (const auto& [rows, n] : shapes) {
    ExpectMatchesReferenceEverywhere(
        {Var(Tensor::Randn({rows, n}, &rng), /*requires_grad=*/true)},
        [](const Leaves& l) { return L2NormalizeLastDim(l[0]); },
        [](const Leaves& l) {
          return RunGraph(
              l, [](const Leaves& v) { return CompositeL2Normalize(v[0]); });
        });
  }
}

TEST(BatchedOpsTest, LinearForwardReluMatchesComposite) {
  Rng rng(25);
  Linear linear(6, 4, &rng);
  const Var x(Tensor::Randn({3, 5, 6}, &rng), /*requires_grad=*/true);
  x.ZeroGrad();
  linear.ZeroGrad();
  Var fused = linear.ForwardRelu(x);
  WeightedSum(fused).Backward();
  const Tensor fused_value = fused.value();
  const Tensor fused_gx = x.grad();
  x.ZeroGrad();
  linear.ZeroGrad();
  Var composite = Relu(linear.Forward(x));
  WeightedSum(composite).Backward();
  ExpectBitEqual(fused_value, composite.value(), "ForwardRelu value");
  ExpectBitEqual(fused_gx, x.grad(), "ForwardRelu input grad");
}

TEST(BatchedOpsTest, SuffixBroadcastBinaryOpsStillCorrect) {
  // Pins the modulo-free nested-loop broadcast rewrite (the old
  // `pb[i % inner]` path) across all four binary ops.
  Rng rng(26);
  const Tensor a3 = Tensor::Randn({2, 3, 4}, &rng);
  Tensor b1 = Tensor::Uniform({4}, 0.5f, 2.0f, &rng);  // nonzero for Div
  const Var av(a3, /*requires_grad=*/true);
  const Var bv(b1, /*requires_grad=*/true);
  using Builder = Var (*)(const Var&, const Var&);
  for (Builder op : {static_cast<Builder>(&Add), static_cast<Builder>(&Sub),
                     static_cast<Builder>(&Mul), static_cast<Builder>(&Div)}) {
    av.ZeroGrad();
    bv.ZeroGrad();
    Var out = op(av, bv);
    for (int64_t o = 0; o < 6; ++o) {
      for (int64_t i = 0; i < 4; ++i) {
        const float x = a3[o * 4 + i];
        const float y = b1[i];
        float want = 0.0f;
        if (op == &Add) want = x + y;
        if (op == &Sub) want = x - y;
        if (op == &Mul) want = x * y;
        if (op == &Div) want = x / y;
        EXPECT_EQ(out.value()[o * 4 + i], want);
      }
    }
    WeightedSum(out).Backward();
    EXPECT_TRUE(av.has_grad());
    EXPECT_TRUE(bv.has_grad());
  }
}

// ---------- grad checks ----------

TEST(BatchedGradCheckTest, BatchedConv1dAcrossEncoderShapes) {
  Rng rng(31);
  // Encoder-like shapes: K=3 dilated stacks over 1- and 3-channel inputs
  // (temporal/residual and frequency domains) plus a wider block.
  struct GcShape {
    int64_t B, Cin, Cout, dilation;
  };
  const std::vector<GcShape> shapes = {
      {2, 1, 4, 1}, {2, 3, 4, 2}, {3, 4, 4, 4}, {2, 8, 8, 2}};
  for (const auto& [B, Cin, Cout, dilation] : shapes) {
    const int64_t K = 3, L = 16;
    const int64_t span = dilation * (K - 1);
    std::vector<Var> leaves = {
        Var(Tensor::Randn({B, Cin, L}, &rng), /*requires_grad=*/true),
        Var(Tensor::Uniform({Cout, Cin, K}, -0.5f, 0.5f, &rng),
            /*requires_grad=*/true),
        Var(Tensor::Uniform({Cout}, -0.1f, 0.1f, &rng),
            /*requires_grad=*/true)};
    const int64_t pl = span / 2, pr = span - span / 2;
    const auto fn = [=](const std::vector<Var>& l) {
      // Tanh keeps the check away from the relu kink while still pushing
      // gradients through the conv.
      return GradCheckLoss(Tanh(Conv1d(l[0], l[1], l[2], dilation, pl, pr)));
    };
    EXPECT_LT(MaxGradError(fn, leaves, /*step=*/1e-2, /*tol=*/1e-3), 6e-2)
        << "B=" << B << " Cin=" << Cin << " dilation=" << dilation;
  }
}

TEST(BatchedGradCheckTest, FusedChains) {
  Rng rng(32);
  // Residual add -> relu (fused), offset so the kink is far from 0.
  {
    std::vector<Var> leaves = {
        Var(Tensor::Uniform({3, 4, 8}, 0.5f, 1.5f, &rng),
            /*requires_grad=*/true),
        Var(Tensor::Uniform({3, 4, 8}, 0.5f, 1.5f, &rng),
            /*requires_grad=*/true)};
    const auto fn = [](const std::vector<Var>& l) {
      return GradCheckLoss(AddRelu(l[0], l[1]));
    };
    EXPECT_LT(MaxGradError(fn, leaves), 4e-2);
  }
  // Bias add -> relu (fused suffix broadcast).
  {
    std::vector<Var> leaves = {
        Var(Tensor::Uniform({4, 6}, 0.5f, 1.5f, &rng),
            /*requires_grad=*/true),
        Var(Tensor::Uniform({6}, 0.25f, 0.75f, &rng),
            /*requires_grad=*/true)};
    const auto fn = [](const std::vector<Var>& l) {
      return GradCheckLoss(AddRelu(l[0], l[1]));
    };
    EXPECT_LT(MaxGradError(fn, leaves), 4e-2);
  }
  // L2 normalize (fused), away from the zero-norm singularity.
  {
    std::vector<Var> leaves = {
        Var(Tensor::Uniform({5, 12}, 0.5f, 2.0f, &rng),
            /*requires_grad=*/true)};
    const auto fn = [](const std::vector<Var>& l) {
      return GradCheckLoss(L2NormalizeLastDim(l[0]));
    };
    EXPECT_LT(MaxGradError(fn, leaves, /*step=*/1e-2, /*tol=*/1e-3), 6e-2);
  }
  // The full projection-head tail: matmul -> bias relu -> normalize.
  // Positive inputs/weights keep every pre-activation > 0.1, so no element
  // crosses the relu kink within the finite-difference step (mixed-sign
  // kink coverage is the AddRelu sub-cases above).
  {
    Rng wrng(33);
    std::vector<Var> leaves = {
        Var(Tensor::Uniform({2, 5, 6}, 0.2f, 1.0f, &wrng),
            /*requires_grad=*/true),
        Var(Tensor::Uniform({6, 4}, 0.1f, 0.4f, &wrng),
            /*requires_grad=*/true),
        Var(Tensor::Uniform({4}, 0.1f, 0.3f, &wrng), /*requires_grad=*/true)};
    const auto fn = [](const std::vector<Var>& l) {
      Var h = AddRelu(MatMul(l[0], l[1]), l[2]);
      return GradCheckLoss(L2NormalizeLastDim(AddScalar(h, 0.2f)));
    };
    EXPECT_LT(MaxGradError(fn, leaves, /*step=*/1e-2, /*tol=*/1e-3), 8e-2);
  }
}

}  // namespace
}  // namespace triad::nn
