#include "nn/layers.h"

#include <cmath>

namespace triad::nn {

int64_t Module::ParameterCount() const {
  int64_t n = 0;
  for (const auto& p : Parameters()) n += p.size();
  return n;
}

void Module::ZeroGrad() const {
  for (const auto& p : Parameters()) p.ZeroGrad();
}

namespace {

Tensor XavierUniform(std::vector<int64_t> shape, int64_t fan_in,
                     int64_t fan_out, Rng* rng) {
  const float limit =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Tensor::Uniform(std::move(shape), -limit, limit, rng);
}

}  // namespace

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng,
               bool with_bias)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = Var(XavierUniform({in_features, out_features}, in_features,
                              out_features, rng),
                /*requires_grad=*/true);
  if (with_bias) {
    bias_ = Var(Tensor::Zeros({out_features}), /*requires_grad=*/true);
  }
}

Var Linear::Forward(const Var& x) const {
  Var y = MatMul(x, weight_);
  if (!bias_.empty()) y = Add(y, bias_);
  return y;
}

Var Linear::ForwardRelu(const Var& x) const {
  Var y = MatMul(x, weight_);
  if (bias_.empty()) return Relu(y);
  return AddRelu(y, bias_);
}

std::vector<Var> Linear::Parameters() const {
  std::vector<Var> out = {weight_};
  if (!bias_.empty()) out.push_back(bias_);
  return out;
}

Conv1dLayer::Conv1dLayer(int64_t in_channels, int64_t out_channels,
                         int64_t kernel_size, int64_t dilation, Rng* rng,
                         bool with_bias)
    : kernel_size_(kernel_size), dilation_(dilation) {
  const int64_t fan_in = in_channels * kernel_size;
  const int64_t fan_out = out_channels * kernel_size;
  weight_ = Var(XavierUniform({out_channels, in_channels, kernel_size}, fan_in,
                              fan_out, rng),
                /*requires_grad=*/true);
  if (with_bias) {
    bias_ = Var(Tensor::Zeros({out_channels}), /*requires_grad=*/true);
  }
}

Var Conv1dLayer::Forward(const Var& x) const {
  const int64_t span = dilation_ * (kernel_size_ - 1);
  const int64_t pad_left = span / 2;
  const int64_t pad_right = span - pad_left;
  return Conv1d(x, weight_, bias_, dilation_, pad_left, pad_right);
}

std::vector<Var> Conv1dLayer::Parameters() const {
  std::vector<Var> out = {weight_};
  if (!bias_.empty()) out.push_back(bias_);
  return out;
}

Lstm::Lstm(int64_t input_size, int64_t hidden_size, Rng* rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  w_ih_ = Var(XavierUniform({input_size, 4 * hidden_size}, input_size,
                            hidden_size, rng),
              /*requires_grad=*/true);
  w_hh_ = Var(XavierUniform({hidden_size, 4 * hidden_size}, hidden_size,
                            hidden_size, rng),
              /*requires_grad=*/true);
  // Forget-gate bias starts at 1 (standard trick for gradient flow).
  Tensor b = Tensor::Zeros({4 * hidden_size});
  for (int64_t i = hidden_size; i < 2 * hidden_size; ++i) b[i] = 1.0f;
  bias_ = Var(std::move(b), /*requires_grad=*/true);
}

Var Lstm::Forward(const Var& x) const {
  Var ignored;
  return Forward(x, &ignored);
}

Var Lstm::Forward(const Var& x, Var* final_hidden) const {
  TRIAD_CHECK_EQ(x.value().ndim(), 3);
  const int64_t B = x.shape()[0];
  const int64_t T = x.shape()[1];
  TRIAD_CHECK_EQ(x.shape()[2], input_size_);
  const int64_t H = hidden_size_;

  Var h = Constant(Tensor::Zeros({B, H}));
  Var c = Constant(Tensor::Zeros({B, H}));
  std::vector<Var> outputs;
  outputs.reserve(static_cast<size_t>(T));
  for (int64_t t = 0; t < T; ++t) {
    Var xt = Reshape(Slice(x, /*axis=*/1, t, 1), {B, input_size_});
    Var gates = Add(Add(MatMul(xt, w_ih_), MatMul(h, w_hh_)), bias_);
    Var i = Sigmoid(Slice(gates, 1, 0, H));
    Var f = Sigmoid(Slice(gates, 1, H, H));
    Var g = Tanh(Slice(gates, 1, 2 * H, H));
    Var o = Sigmoid(Slice(gates, 1, 3 * H, H));
    c = Add(Mul(f, c), Mul(i, g));
    h = Mul(o, Tanh(c));
    outputs.push_back(Reshape(h, {B, 1, H}));
  }
  *final_hidden = h;
  return Concat(outputs, /*axis=*/1);
}

std::vector<Var> Lstm::Parameters() const { return {w_ih_, w_hh_, bias_}; }

DilatedResidualBlock::DilatedResidualBlock(int64_t in_channels,
                                           int64_t out_channels,
                                           int64_t kernel_size,
                                           int64_t dilation, Rng* rng)
    : conv1_(in_channels, out_channels, kernel_size, dilation, rng),
      conv2_(out_channels, out_channels, kernel_size, dilation, rng) {
  if (in_channels != out_channels) {
    projection_ = std::make_unique<Conv1dLayer>(in_channels, out_channels,
                                                /*kernel_size=*/1,
                                                /*dilation=*/1, rng);
  }
}

Var DilatedResidualBlock::Forward(const Var& x) const {
  Var y = Relu(conv1_.Forward(x));
  y = conv2_.Forward(y);
  Var skip = projection_ ? projection_->Forward(x) : x;
  // Residual add + relu fuse into one pass (nn/fused.h).
  return AddRelu(y, skip);
}

std::vector<Var> DilatedResidualBlock::Parameters() const {
  std::vector<Var> out = conv1_.Parameters();
  for (const auto& p : conv2_.Parameters()) out.push_back(p);
  if (projection_) {
    for (const auto& p : projection_->Parameters()) out.push_back(p);
  }
  return out;
}

}  // namespace triad::nn
