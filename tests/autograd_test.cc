#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "nn/grad_check.h"
#include "nn/ops.h"

namespace triad::nn {
namespace {

// Projects any-shaped output to a scalar with fixed pseudo-random weights so
// every output element contributes to the checked gradient.
Var WeightedSum(const Var& v) {
  Tensor w(v.shape());
  for (int64_t i = 0; i < w.size(); ++i) {
    w[i] = 0.3f + 0.1f * static_cast<float>((i * 2654435761u) % 17);
  }
  return SumAll(Mul(v, Constant(std::move(w))));
}

Var Leaf(std::vector<int64_t> shape, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  Tensor t = Tensor::Randn(std::move(shape), &rng);
  t.ScaleInPlace(scale);
  return Var(std::move(t), /*requires_grad=*/true);
}

constexpr double kTol = 3e-2;

// ---------- basic backward behavior ----------

TEST(AutogradTest, BackwardOnScalarLeaf) {
  Var x(Tensor::Scalar(2.0f), true);
  Var y = Mul(x, x);
  y.Backward();
  EXPECT_NEAR(x.grad()[0], 4.0f, 1e-5);
}

TEST(AutogradTest, GradientAccumulatesAcrossPaths) {
  Var x(Tensor::Scalar(3.0f), true);
  Var y = Add(x, x);  // dy/dx = 2
  y.Backward();
  EXPECT_NEAR(x.grad()[0], 2.0f, 1e-5);
}

TEST(AutogradTest, NoGradForConstants) {
  Var c = Constant(Tensor::Scalar(1.0f));
  Var x(Tensor::Scalar(2.0f), true);
  Var y = Mul(c, x);
  y.Backward();
  EXPECT_FALSE(c.has_grad());
  EXPECT_TRUE(x.has_grad());
}

TEST(AutogradTest, ZeroGradClears) {
  Var x(Tensor::Scalar(2.0f), true);
  Mul(x, x).Backward();
  EXPECT_TRUE(x.has_grad());
  x.ZeroGrad();
  EXPECT_FALSE(x.has_grad());
}

TEST(AutogradDeathTest, BackwardRequiresScalar) {
  Var x(Tensor::Zeros({2, 2}), true);
  EXPECT_DEATH(x.Backward(), "scalar");
}

TEST(AutogradTest, DeepChainDoesNotOverflowStack) {
  Var x(Tensor::Scalar(1.0f), true);
  Var y = x;
  for (int i = 0; i < 5000; ++i) y = AddScalar(y, 0.0f);
  SumAll(y).Backward();
  EXPECT_NEAR(x.grad()[0], 1.0f, 1e-5);
}

// ---------- parameterized gradient checks ----------

struct OpCase {
  std::string name;
  std::function<Var(const std::vector<Var>&)> fn;
  std::vector<Var> leaves;
};

class OpGradTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(OpGradTest, MatchesFiniteDifferences) {
  const OpCase& op = GetParam();
  EXPECT_LT(MaxGradError(op.fn, op.leaves), kTol) << op.name;
}

std::vector<OpCase> MakeElementwiseCases() {
  std::vector<OpCase> cases;
  auto unary = [&](const std::string& name, Var (*f)(const Var&),
                   float scale = 1.0f) {
    cases.push_back({name,
                     [f](const std::vector<Var>& l) {
                       return WeightedSum(f(l[0]));
                     },
                     {Leaf({2, 5}, 100 + cases.size(), scale)}});
  };
  unary("relu", [](const Var& v) { return Relu(v); });
  unary("sigmoid", [](const Var& v) { return Sigmoid(v); });
  unary("tanh", [](const Var& v) { return Tanh(v); });
  unary("exp", [](const Var& v) { return Exp(v); }, 0.5f);
  unary("square", [](const Var& v) { return Square(v); });
  unary("neg", [](const Var& v) { return Neg(v); });
  // log/sqrt need positive inputs.
  auto positive_leaf = [](std::vector<int64_t> shape, uint64_t seed) {
    Rng rng(seed);
    Tensor t = Tensor::Uniform(std::move(shape), 0.5f, 2.0f, &rng);
    return Var(std::move(t), true);
  };
  cases.push_back({"log",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(Log(l[0]));
                   },
                   {positive_leaf({2, 4}, 8)}});
  cases.push_back({"sqrt",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(Sqrt(l[0]));
                   },
                   {positive_leaf({2, 4}, 9)}});
  return cases;
}

std::vector<OpCase> MakeBinaryCases() {
  std::vector<OpCase> cases;
  auto binary = [&](const std::string& name,
                    Var (*f)(const Var&, const Var&),
                    std::vector<int64_t> shape_a,
                    std::vector<int64_t> shape_b) {
    cases.push_back({name,
                     [f](const std::vector<Var>& l) {
                       return WeightedSum(f(l[0], l[1]));
                     },
                     {Leaf(shape_a, 200 + cases.size()),
                      Leaf(shape_b, 300 + cases.size())}});
  };
  binary("add_same", &Add, {2, 3}, {2, 3});
  binary("add_suffix", &Add, {2, 3, 4}, {4});
  binary("add_scalar_rhs", &Add, {2, 3}, {1});
  binary("sub_same", &Sub, {2, 3}, {2, 3});
  binary("sub_suffix", &Sub, {4, 3}, {3});
  binary("mul_same", &Mul, {2, 3}, {2, 3});
  binary("mul_suffix", &Mul, {2, 3, 2}, {2});
  // Division needs a denominator bounded away from zero.
  cases.push_back({"div_same",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(Div(l[0], AddScalar(Sigmoid(l[1]),
                                                            0.5f)));
                   },
                   {Leaf({2, 3}, 20), Leaf({2, 3}, 21)}});
  cases.push_back({"div_suffix",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(Div(l[0], AddScalar(Sigmoid(l[1]),
                                                            0.5f)));
                   },
                   {Leaf({2, 3, 2}, 22), Leaf({2}, 23)}});
  return cases;
}

std::vector<OpCase> MakeMatrixCases() {
  std::vector<OpCase> cases;
  cases.push_back({"matmul_2d",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(MatMul(l[0], l[1]));
                   },
                   {Leaf({3, 4}, 30), Leaf({4, 2}, 31)}});
  cases.push_back({"matmul_3d_shared",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(MatMul(l[0], l[1]));
                   },
                   {Leaf({2, 3, 4}, 32), Leaf({4, 2}, 33)}});
  cases.push_back({"matmul_3d_batched",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(MatMul(l[0], l[1]));
                   },
                   {Leaf({2, 3, 4}, 34), Leaf({2, 4, 2}, 35)}});
  cases.push_back({"transpose_2d",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(TransposeLast2(l[0]));
                   },
                   {Leaf({3, 5}, 36)}});
  cases.push_back({"transpose_3d",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(TransposeLast2(l[0]));
                   },
                   {Leaf({2, 3, 4}, 37)}});
  return cases;
}

std::vector<OpCase> MakeConvCases() {
  std::vector<OpCase> cases;
  auto add_conv = [&](const std::string& name, int64_t dilation,
                      int64_t pad_l, int64_t pad_r) {
    cases.push_back({name,
                     [dilation, pad_l, pad_r](const std::vector<Var>& l) {
                       return WeightedSum(
                           Conv1d(l[0], l[1], l[2], dilation, pad_l, pad_r));
                     },
                     {Leaf({2, 2, 10}, 40), Leaf({3, 2, 3}, 41),
                      Leaf({3}, 42)}});
  };
  add_conv("conv1d_same", 1, 1, 1);
  add_conv("conv1d_dilated", 2, 2, 2);
  add_conv("conv1d_valid", 1, 0, 0);
  add_conv("conv1d_asymmetric_pad", 3, 3, 3);
  cases.push_back({"conv1d_no_bias",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(Conv1d(l[0], l[1], Var(), 1, 1, 1));
                   },
                   {Leaf({1, 1, 8}, 43), Leaf({2, 1, 3}, 44)}});
  return cases;
}

std::vector<OpCase> MakeShapeAndReduceCases() {
  std::vector<OpCase> cases;
  cases.push_back({"sum_all",
                   [](const std::vector<Var>& l) { return SumAll(l[0]); },
                   {Leaf({3, 4}, 50)}});
  cases.push_back({"mean_all",
                   [](const std::vector<Var>& l) { return MeanAll(l[0]); },
                   {Leaf({3, 4}, 51)}});
  cases.push_back({"sum_axis0",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(Sum(l[0], 0, false));
                   },
                   {Leaf({3, 4}, 52)}});
  cases.push_back({"sum_axis1_keepdim",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(Sum(l[0], 1, true));
                   },
                   {Leaf({3, 4}, 53)}});
  cases.push_back({"mean_axis_middle",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(Mean(l[0], 1, false));
                   },
                   {Leaf({2, 3, 4}, 54)}});
  cases.push_back({"reshape",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(Reshape(l[0], {4, 3}));
                   },
                   {Leaf({3, 4}, 55)}});
  cases.push_back({"expand_last_dim",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(ExpandLastDim(l[0], 5));
                   },
                   {Leaf({3, 1}, 56)}});
  cases.push_back({"concat_axis0",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(Concat({l[0], l[1]}, 0));
                   },
                   {Leaf({2, 3}, 57), Leaf({1, 3}, 58)}});
  cases.push_back({"concat_axis1",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(Concat({l[0], l[1]}, 1));
                   },
                   {Leaf({2, 2}, 59), Leaf({2, 3}, 60)}});
  cases.push_back({"slice_middle",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(Slice(l[0], 1, 1, 2));
                   },
                   {Leaf({2, 4}, 61)}});
  cases.push_back({"softmax",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(Softmax(l[0]));
                   },
                   {Leaf({3, 5}, 62)}});
  cases.push_back({"l2_normalize",
                   [](const std::vector<Var>& l) {
                     return WeightedSum(L2NormalizeLastDim(l[0]));
                   },
                   {Leaf({3, 6}, 63)}});
  cases.push_back({"mse_loss",
                   [](const std::vector<Var>& l) {
                     return MseLoss(l[0], l[1]);
                   },
                   {Leaf({2, 5}, 64), Leaf({2, 5}, 65)}});
  return cases;
}

std::vector<OpCase> AllCases() {
  std::vector<OpCase> all;
  for (auto maker : {MakeElementwiseCases, MakeBinaryCases, MakeMatrixCases,
                     MakeConvCases, MakeShapeAndReduceCases}) {
    for (auto& c : maker()) all.push_back(std::move(c));
  }
  return all;
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpGradTest, ::testing::ValuesIn(AllCases()),
                         [](const ::testing::TestParamInfo<OpCase>& info) {
                           return info.param.name;
                         });

// ---------- forward-value spot checks ----------

TEST(OpsForwardTest, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Var x(Tensor::Randn({4, 7}, &rng), false);
  Var s = Softmax(x);
  for (int64_t r = 0; r < 4; ++r) {
    float sum = 0.0f;
    for (int64_t c = 0; c < 7; ++c) sum += s.value().at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(OpsForwardTest, L2NormalizeMakesUnitRows) {
  Rng rng(4);
  Var x(Tensor::Randn({3, 8}, &rng), false);
  Var n = L2NormalizeLastDim(x);
  for (int64_t r = 0; r < 3; ++r) {
    float ss = 0.0f;
    for (int64_t c = 0; c < 8; ++c) ss += n.value().at(r, c) * n.value().at(r, c);
    EXPECT_NEAR(ss, 1.0f, 1e-4);
  }
}

TEST(OpsForwardTest, Conv1dIdentityKernel) {
  // A [1] kernel with weight 1 reproduces the input.
  Var x(Tensor({1, 1, 5}, {1, 2, 3, 4, 5}), false);
  Var w(Tensor({1, 1, 1}, {1.0f}), false);
  Var y = Conv1d(x, w, Var(), 1, 0, 0);
  for (int64_t i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(y.value()[i], x.value()[i]);
}

TEST(OpsForwardTest, Conv1dKnownValues) {
  // Moving sum of window 3 with zero padding.
  Var x(Tensor({1, 1, 4}, {1, 2, 3, 4}), false);
  Var w(Tensor({1, 1, 3}, {1, 1, 1}), false);
  Var y = Conv1d(x, w, Var(), 1, 1, 1);
  EXPECT_FLOAT_EQ(y.value()[0], 3.0f);   // 0+1+2
  EXPECT_FLOAT_EQ(y.value()[1], 6.0f);   // 1+2+3
  EXPECT_FLOAT_EQ(y.value()[2], 9.0f);   // 2+3+4
  EXPECT_FLOAT_EQ(y.value()[3], 7.0f);   // 3+4+0
}

TEST(OpsForwardTest, MatMulKnownValues) {
  Var a(Tensor({2, 2}, {1, 2, 3, 4}), false);
  Var b(Tensor({2, 2}, {5, 6, 7, 8}), false);
  Var c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.value().at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.value().at(1, 1), 50.0f);
}

TEST(OpsForwardDeathTest, IncompatibleShapesAbort) {
  Var a(Tensor::Zeros({2, 3}), false);
  Var b(Tensor::Zeros({2, 2}), false);
  EXPECT_DEATH(Add(a, b), "broadcast");
  EXPECT_DEATH(MatMul(a, b), "");
}

}  // namespace
}  // namespace triad::nn
