#include "nn/optimizer.h"

#include <cmath>

namespace triad::nn {

Adam::Adam(std::vector<Var> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    TRIAD_CHECK(p.requires_grad());
    m_.emplace_back(Tensor::Zeros(p.shape()));
    v_.emplace_back(Tensor::Zeros(p.shape()));
    step_count_.push_back(0);
  }
}

void Adam::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    if (!params_[i].has_grad()) continue;
    auto node = params_[i].node();
    const Tensor& g = node->grad;
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    const int64_t t = ++step_count_[i];
    const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t));
    const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t));
    float* pm = m.data();
    float* pv = v.data();
    float* pw = node->value.data();
    const float* pg = g.data();
    const int64_t n = g.size();
    for (int64_t j = 0; j < n; ++j) {
      pm[j] = beta1_ * pm[j] + (1.0f - beta1_) * pg[j];
      pv[j] = beta2_ * pv[j] + (1.0f - beta2_) * pg[j] * pg[j];
      const float mhat = pm[j] / bc1;
      const float vhat = pv[j] / bc2;
      pw[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

void Adam::ZeroGrad() {
  for (const auto& p : params_) p.ZeroGrad();
}

float Adam::ClipGradNorm(float max_norm) {
  double sq = 0.0;
  for (const auto& p : params_) {
    if (!p.has_grad()) continue;
    const Tensor& g = p.grad();
    for (int64_t j = 0; j < g.size(); ++j) {
      sq += static_cast<double>(g[j]) * g[j];
    }
  }
  const float norm = static_cast<float>(std::sqrt(sq));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (const auto& p : params_) {
      if (!p.has_grad()) continue;
      p.node()->grad.ScaleInPlace(scale);
    }
  }
  return norm;
}

}  // namespace triad::nn
