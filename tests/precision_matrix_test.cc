// Composition matrix for numeric reproducibility: the SIMD tier
// (TRIAD_SIMD) and the pool's lane count (TRIAD_NUM_THREADS) must compose
// without surprises. Their in-process equivalents (ScopedForceLevel,
// ScopedDefaultPool) let one binary walk the whole matrix. nn_batched_test
// compares each op with its serial oracle within one SIMD tier; this pins a
// whole training step across tiers too: every nn forward value and
// gradient is bit-identical across all {simd tier} x {1 lane, 4 lanes}
// combinations.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "nn/variable.h"

namespace triad {
namespace {

bool BestTierIsVector() {
  return simd::HighestSupportedLevel() != simd::Level::kScalar;
}

// Builds a representative training step (conv -> fused add+relu -> matmul
// -> normalize), backprops, and returns {forward, leaf grads}.
std::vector<nn::Tensor> RunTrainingStep(const std::vector<nn::Var>& leaves) {
  for (const auto& l : leaves) l.ZeroGrad();
  const nn::Var& x = leaves[0];
  const nn::Var& w = leaves[1];
  const nn::Var& b = leaves[2];
  const nn::Var& proj = leaves[3];
  nn::Var conv = nn::Conv1d(x, w, b, /*dilation=*/2, /*pad_left=*/4,
                            /*pad_right=*/0);
  nn::Var act = nn::AddRelu(conv, conv);
  const auto& s = act.shape();  // [B, Cout, Lout]
  nn::Var flat = nn::Reshape(act, {s[0], s[1] * s[2]});
  nn::Var out = nn::L2NormalizeLastDim(nn::MatMul(flat, proj));
  nn::SumAll(nn::Square(out)).Backward();
  std::vector<nn::Tensor> result = {out.value()};
  for (const auto& l : leaves) result.push_back(l.grad());
  return result;
}

TEST(PrecisionMatrixTest, TrainingIsBitIdenticalAcrossWholeKnobMatrix) {
  Rng rng(55);
  const int64_t B = 3, Cin = 2, Cout = 4, K = 3, L = 24;
  const int64_t Lout = L;  // Conv1d pads causally; length is preserved
  std::vector<nn::Var> leaves = {
      nn::Var(nn::Tensor::Randn({B, Cin, L}, &rng), /*requires_grad=*/true),
      nn::Var(nn::Tensor::Randn({Cout, Cin, K}, &rng),
              /*requires_grad=*/true),
      nn::Var(nn::Tensor::Randn({Cout}, &rng), /*requires_grad=*/true),
      nn::Var(nn::Tensor::Randn({Cout * Lout, 6}, &rng),
              /*requires_grad=*/true)};

  ThreadPool serial(1), quad(4);
  std::vector<nn::Tensor> reference;  // scalar tier, 1 lane
  {
    simd::ScopedForceLevel level(simd::Level::kScalar);
    ScopedDefaultPool lanes(&serial);
    reference = RunTrainingStep(leaves);
  }

  for (const bool vector_tier : {false, true}) {
    if (vector_tier && !BestTierIsVector()) continue;
    for (ThreadPool* pool : {&serial, &quad}) {
      simd::ScopedForceLevel force_level(
          vector_tier ? simd::HighestSupportedLevel() : simd::Level::kScalar);
      ScopedDefaultPool lanes(pool);
      const std::vector<nn::Tensor> got = RunTrainingStep(leaves);
      SCOPED_TRACE(std::string(vector_tier ? "vector" : "scalar") + "/" +
                   std::to_string(pool->num_threads()) + " lanes");
      ASSERT_EQ(got.size(), reference.size());
      for (size_t t = 0; t < reference.size(); ++t) {
        ASSERT_EQ(got[t].shape(), reference[t].shape());
        for (int64_t i = 0; i < reference[t].size(); ++i) {
          ASSERT_EQ(std::bit_cast<uint32_t>(got[t][i]),
                    std::bit_cast<uint32_t>(reference[t][i]))
              << "tensor " << t << " flat index " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace triad
