#include <gtest/gtest.h>

#include <cmath>

#include "nn/grad_check.h"
#include "nn/layers.h"
#include "nn/optimizer.h"

namespace triad::nn {
namespace {

TEST(LinearTest, OutputShape2dAnd3d) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  Var x2(Tensor::Randn({5, 4}, &rng), false);
  EXPECT_EQ(layer.Forward(x2).shape(), (std::vector<int64_t>{5, 3}));
  Var x3(Tensor::Randn({2, 5, 4}, &rng), false);
  EXPECT_EQ(layer.Forward(x3).shape(), (std::vector<int64_t>{2, 5, 3}));
}

TEST(LinearTest, ParameterCount) {
  Rng rng(1);
  Linear with_bias(4, 3, &rng);
  EXPECT_EQ(with_bias.ParameterCount(), 4 * 3 + 3);
  Linear no_bias(4, 3, &rng, /*with_bias=*/false);
  EXPECT_EQ(no_bias.ParameterCount(), 4 * 3);
}

TEST(LinearTest, GradCheckThroughLayer) {
  Rng rng(2);
  Linear layer(3, 2, &rng);
  std::vector<Var> leaves = layer.Parameters();
  Rng data_rng(3);
  Tensor x = Tensor::Randn({4, 3}, &data_rng);
  const double err = MaxGradError(
      [&](const std::vector<Var>&) {
        return MeanAll(Square(layer.Forward(Var(x, false))));
      },
      leaves);
  EXPECT_LT(err, 3e-2);
}

TEST(Conv1dLayerTest, SamePaddingPreservesLength) {
  Rng rng(4);
  for (int64_t dilation : {1, 2, 4, 8}) {
    Conv1dLayer layer(2, 3, 3, dilation, &rng);
    Var x(Tensor::Randn({2, 2, 17}, &rng), false);
    Var y = layer.Forward(x);
    EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, 3, 17}))
        << "dilation=" << dilation;
  }
}

TEST(LstmTest, OutputShapesAndFinalHidden) {
  Rng rng(5);
  Lstm lstm(3, 6, &rng);
  Var x(Tensor::Randn({2, 7, 3}, &rng), false);
  Var final_hidden;
  Var out = lstm.Forward(x, &final_hidden);
  EXPECT_EQ(out.shape(), (std::vector<int64_t>{2, 7, 6}));
  EXPECT_EQ(final_hidden.shape(), (std::vector<int64_t>{2, 6}));
  // The final hidden state equals the last timestep of the output sequence.
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t h = 0; h < 6; ++h) {
      EXPECT_FLOAT_EQ(final_hidden.value().at(b, h), out.value().at(b, 6, h));
    }
  }
}

TEST(LstmTest, GradFlowsThroughTime) {
  Rng rng(6);
  Lstm lstm(2, 3, &rng);
  Var x(Tensor::Randn({1, 5, 2}, &rng), true);
  Var out = lstm.Forward(x);
  MeanAll(Square(out)).Backward();
  ASSERT_TRUE(x.has_grad());
  // Early timesteps must receive gradient through the recurrence.
  float early = 0.0f;
  for (int64_t i = 0; i < 2; ++i) early += std::abs(x.grad()[i]);
  EXPECT_GT(early, 0.0f);
}

TEST(LstmTest, GradCheckSmall) {
  Rng rng(7);
  Lstm lstm(2, 2, &rng);
  Rng data_rng(8);
  Tensor x = Tensor::Randn({2, 3, 2}, &data_rng);
  const double err = MaxGradError(
      [&](const std::vector<Var>&) {
        return MeanAll(Square(lstm.Forward(Var(x, false))));
      },
      lstm.Parameters());
  EXPECT_LT(err, 5e-2);
}

TEST(DilatedResidualBlockTest, ProjectsWhenChannelsChange) {
  Rng rng(9);
  DilatedResidualBlock block(1, 4, 3, 2, &rng);
  Var x(Tensor::Randn({2, 1, 11}, &rng), false);
  EXPECT_EQ(block.Forward(x).shape(), (std::vector<int64_t>{2, 4, 11}));
  // Channel change adds a 1x1 projection: conv1 (1->4, k3) + conv2 (4->4,
  // k3) + projection (1->4, k1), biases included.
  DilatedResidualBlock changed(1, 4, 3, 1, &rng);
  EXPECT_EQ(changed.ParameterCount(),
            (1 * 4 * 3 + 4) + (4 * 4 * 3 + 4) + (1 * 4 * 1 + 4));
  // Same channel count: skip path is the identity, no projection.
  DilatedResidualBlock same(4, 4, 3, 1, &rng);
  EXPECT_EQ(same.ParameterCount(), 2 * (4 * 4 * 3 + 4));
}

TEST(AdamTest, MinimizesQuadratic) {
  // Minimize ||x - target||^2; Adam should converge fast.
  Var x(Tensor({3}, {5.0f, -4.0f, 2.0f}), true);
  Var target = Constant(Tensor({3}, {1.0f, 2.0f, 3.0f}));
  Adam opt({x}, 0.1f);
  for (int step = 0; step < 300; ++step) {
    opt.ZeroGrad();
    MseLoss(x, target).Backward();
    opt.Step();
  }
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(x.value()[i], target.value()[i], 0.05f);
  }
}

TEST(AdamTest, SkipsParametersWithoutGradients) {
  Var used(Tensor::Scalar(1.0f), true);
  Var unused(Tensor::Scalar(2.0f), true);
  Adam opt({used, unused}, 0.1f);
  opt.ZeroGrad();
  Square(used).Backward();
  opt.Step();
  EXPECT_FLOAT_EQ(unused.value()[0], 2.0f);
  EXPECT_NE(used.value()[0], 1.0f);
}

TEST(AdamTest, ClipGradNormScalesDown) {
  Var x(Tensor({2}, {0.0f, 0.0f}), true);
  Adam opt({x}, 0.1f);
  opt.ZeroGrad();
  // loss = 100 * (x0 + x1), gradient (100, 100), norm ~141.
  SumAll(MulScalar(x, 100.0f)).Backward();
  const float norm = opt.ClipGradNorm(1.0f);
  EXPECT_NEAR(norm, std::sqrt(2.0f) * 100.0f, 1e-2);
  const float clipped = std::sqrt(x.grad()[0] * x.grad()[0] +
                                  x.grad()[1] * x.grad()[1]);
  EXPECT_NEAR(clipped, 1.0f, 1e-4);
}

TEST(ModuleTest, ZeroGradClearsAllParameters) {
  Rng rng(10);
  Linear layer(3, 3, &rng);
  Var x(Tensor::Randn({2, 3}, &rng), false);
  MeanAll(Square(layer.Forward(x))).Backward();
  for (const auto& p : layer.Parameters()) EXPECT_TRUE(p.has_grad());
  layer.ZeroGrad();
  for (const auto& p : layer.Parameters()) EXPECT_FALSE(p.has_grad());
}

}  // namespace
}  // namespace triad::nn
