// Randomized composite-graph stress tests: build random expressions from a
// safe (smooth) op vocabulary and verify the full-graph gradient against
// finite differences. Catches interaction bugs single-op tests cannot
// (shared subexpressions, repeated leaves, deep chains).

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/rng.h"
#include "nn/grad_check.h"
#include "nn/ops.h"

namespace triad::nn {
namespace {

// Projects to a scalar with fixed pseudo-random weights.
Var WeightedSum(const Var& v) {
  Tensor w(v.shape());
  for (int64_t i = 0; i < w.size(); ++i) {
    w[i] = 0.2f + 0.1f * static_cast<float>((i * 2654435761u) % 13);
  }
  return SumAll(Mul(v, Constant(std::move(w))));
}

// Applies a random smooth unary op.
Var RandomUnary(const Var& v, Rng* rng) {
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return Tanh(v);
    case 1:
      return Sigmoid(v);
    case 2:
      return MulScalar(v, 0.7f);
    default:
      return AddScalar(Square(Tanh(v)), 0.1f);
  }
}

// Combines two same-shaped values with a random smooth binary op.
Var RandomBinary(const Var& a, const Var& b, Rng* rng) {
  switch (rng->UniformInt(0, 2)) {
    case 0:
      return Add(a, b);
    case 1:
      return Mul(Tanh(a), Sigmoid(b));  // bounded product
    default:
      return Sub(a, MulScalar(b, 0.5f));
  }
}

class OpsStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OpsStressTest, RandomElementwiseGraphGradCheck) {
  Rng rng(GetParam());
  Rng data_rng(GetParam() + 777);
  std::vector<Var> leaves = {
      Var(Tensor::Randn({2, 5}, &data_rng), true),
      Var(Tensor::Randn({2, 5}, &data_rng), true),
  };
  auto fn = [seed = GetParam()](const std::vector<Var>& ls) {
    Rng graph_rng(seed);
    // Pool of intermediate values; each step combines/transforms randomly.
    std::vector<Var> pool = ls;
    for (int step = 0; step < 6; ++step) {
      const auto i = graph_rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1);
      const auto j = graph_rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1);
      Var next = graph_rng.Bernoulli(0.5)
                     ? RandomUnary(pool[static_cast<size_t>(i)], &graph_rng)
                     : RandomBinary(pool[static_cast<size_t>(i)],
                                    pool[static_cast<size_t>(j)], &graph_rng);
      pool.push_back(next);
    }
    return WeightedSum(pool.back());
  };
  // A 1e-2 step, as in the matmul and conv checks: the finite-difference
  // noise is the loss's float32 rounding over the step, so it grows with
  // the loss, and at 1e-3 a graph whose loss reaches ~7 (seed 10) reads
  // ~0.09 from noise alone. A wrong gradient would not shrink with the step.
  EXPECT_LT(MaxGradError(fn, leaves, /*step=*/1e-2), 4e-2);
}

TEST_P(OpsStressTest, MatmulChainGradCheck) {
  Rng data_rng(GetParam() + 100);
  // Small-magnitude leaves keep tanh/sigmoid unsaturated: a saturated
  // nonlinearity's true gradient (~1e-4) sinks below float32 finite-
  // difference noise and the comparison becomes meaningless.
  auto small_leaf = [&](std::vector<int64_t> shape) {
    Tensor t = Tensor::Randn(std::move(shape), &data_rng);
    t.ScaleInPlace(0.4f);
    return Var(std::move(t), true);
  };
  std::vector<Var> leaves = {small_leaf({3, 4}), small_leaf({4, 3}),
                             small_leaf({3, 2})};
  auto fn = [](const std::vector<Var>& ls) {
    Var h = Tanh(MatMul(ls[0], ls[1]));  // [3,3]
    h = MatMul(h, ls[2]);                // [3,2]
    // Sigmoid rather than softmax here: a softmax tail's gradients fall
    // below what float32 finite differences can resolve (softmax backward
    // itself is verified in autograd_test).
    h = Sigmoid(MulScalar(h, 0.5f));
    return WeightedSum(h);
  };
  // Wider step + denominator floor: deep chains have entries with true
  // gradients ~5e-4, at the edge of float32 finite-difference resolution.
  EXPECT_LT(MaxGradError(fn, leaves, /*step=*/1e-2, /*tol=*/1e-3), 6e-2);
}

TEST_P(OpsStressTest, SharedSubexpressionGradCheck) {
  // The same intermediate feeds two branches; gradients must accumulate.
  Rng data_rng(GetParam() + 200);
  std::vector<Var> leaves = {Var(Tensor::Randn({2, 4}, &data_rng), true)};
  auto fn = [](const std::vector<Var>& ls) {
    Var shared = Tanh(ls[0]);
    Var branch_a = Square(shared);
    Var branch_b = Mul(shared, Sigmoid(shared));
    return WeightedSum(Add(branch_a, branch_b));
  };
  EXPECT_LT(MaxGradError(fn, leaves), 4e-2);
}

TEST_P(OpsStressTest, SliceConcatRoundTripGradCheck) {
  Rng data_rng(GetParam() + 300);
  std::vector<Var> leaves = {Var(Tensor::Randn({3, 6}, &data_rng), true)};
  auto fn = [](const std::vector<Var>& ls) {
    Var left = Slice(ls[0], 1, 0, 3);
    Var right = Slice(ls[0], 1, 3, 3);
    // Swap halves, transform, and recombine.
    Var recombined = Concat({Tanh(right), Sigmoid(left)}, 1);
    return WeightedSum(recombined);
  };
  EXPECT_LT(MaxGradError(fn, leaves), 4e-2);
}

TEST_P(OpsStressTest, NormalizeReduceGradCheck) {
  Rng data_rng(GetParam() + 400);
  std::vector<Var> leaves = {Var(Tensor::Randn({4, 5}, &data_rng), true)};
  auto fn = [](const std::vector<Var>& ls) {
    Var normed = L2NormalizeLastDim(ls[0]);
    Var sims = MatMul(normed, TransposeLast2(normed));  // [4,4] cosines
    return MeanAll(Square(sims));
  };
  EXPECT_LT(MaxGradError(fn, leaves), 4e-2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpsStressTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------- Conv1d backward at the encoder's exact shapes ----------
//
// The TriAD encoder is a stack of dilated residual blocks (kernel_size 3,
// dilations 1, 2, 4, ..., 2^(depth-1)) whose first block maps 1 -> 32
// channels and whose later blocks map 32 -> 32 (core/config.h defaults).
// These grad-checks pin the SIMD-backed Conv1dBackward{Input,Weight,Bias}
// kernels at exactly those channel counts and a representative spread of
// the dilations ({1, 4, 32} — smallest, interior, and the depth-6 maximum),
// with "same" padding as the encoder applies it.

// Grad-checks one encoder-shaped conv: [B, cin, L] (x) [cout, cin, 3] with
// symmetric same-padding for the given dilation, plus bias.
void ConvEncoderShapeGradCheck(int64_t cin, int64_t cout, int64_t dilation,
                               uint64_t seed) {
  const int64_t kK = 3;
  const int64_t pad = dilation * (kK - 1) / 2;  // K=3 -> symmetric "same"
  // L must exceed the receptive field dilation*(K-1) so interior taps see
  // real (non-pad) data; keep it unaligned to cover SIMD remainder tails.
  const int64_t L = dilation * (kK - 1) + 9;
  Rng data_rng(seed);
  auto small_leaf = [&](std::vector<int64_t> shape) {
    Tensor t = Tensor::Randn(std::move(shape), &data_rng);
    t.ScaleInPlace(0.3f);
    return Var(std::move(t), true);
  };
  std::vector<Var> leaves = {small_leaf({2, cin, L}),
                             small_leaf({cout, cin, kK}),
                             small_leaf({cout})};
  // Normalize by the output size: the raw weighted sum over B*Cout*L
  // elements grows to O(100) at 32 channels, and finite-difference noise
  // (float32 rounding of the loss divided by the step) grows with it while
  // the comparison's tolerance floor does not.
  const float inv_size = 1.0f / static_cast<float>(2 * cout * L);
  auto fn = [=](const std::vector<Var>& ls) {
    Var y = Conv1d(ls[0], ls[1], ls[2], dilation, pad, pad);
    return MulScalar(WeightedSum(Tanh(y)), inv_size);
  };
  // Same widened step/floor as the matmul chain above.
  EXPECT_LT(MaxGradError(fn, leaves, /*step=*/1e-2, /*tol=*/1e-3), 6e-2)
      << "cin=" << cin << " cout=" << cout << " dilation=" << dilation;
}

TEST(ConvEncoderGradCheckTest, InputBlockDilation1) {
  ConvEncoderShapeGradCheck(/*cin=*/1, /*cout=*/32, /*dilation=*/1, 1001);
}

TEST(ConvEncoderGradCheckTest, HiddenBlockDilation4) {
  ConvEncoderShapeGradCheck(/*cin=*/32, /*cout=*/32, /*dilation=*/4, 1002);
}

TEST(ConvEncoderGradCheckTest, DeepestBlockDilation32) {
  ConvEncoderShapeGradCheck(/*cin=*/32, /*cout=*/32, /*dilation=*/32, 1003);
}

// The 1-channel residual-projection conv (1x1, dilation 1) the blocks use
// when channel counts change.
TEST(ConvEncoderGradCheckTest, PointwiseProjection) {
  const int64_t L = 23;
  Rng data_rng(1004);
  auto small_leaf = [&](std::vector<int64_t> shape) {
    Tensor t = Tensor::Randn(std::move(shape), &data_rng);
    t.ScaleInPlace(0.3f);
    return Var(std::move(t), true);
  };
  std::vector<Var> leaves = {small_leaf({2, 1, L}), small_leaf({32, 1, 1})};
  const float inv_size = 1.0f / static_cast<float>(2 * 32 * L);
  auto fn = [=](const std::vector<Var>& ls) {
    Var y = Conv1d(ls[0], ls[1], Var(), /*dilation=*/1, 0, 0);
    return MulScalar(WeightedSum(Tanh(y)), inv_size);
  };
  EXPECT_LT(MaxGradError(fn, leaves, /*step=*/1e-2, /*tol=*/1e-3), 6e-2);
}

}  // namespace
}  // namespace triad::nn
