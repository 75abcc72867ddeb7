#include "nn/fused.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/simd.h"

namespace triad::nn::fused {
namespace {

// Sqrt()'s default clamp (ops.h), mirrored so the fused normalize floors
// the norm exactly like the composite Sqrt(AddScalar(Sum(Square(x)))).
constexpr float kSqrtEps = 1e-12f;

}  // namespace

// NOTE: this translation unit is compiled with -ffp-contract=off (see
// src/nn/CMakeLists.txt): several backward loops below write mul-then-add
// chains that must round per operation to stay bit-identical to the
// composite graph; letting the compiler contract them into FMAs would
// silently change gradients.

Var AddReluFused(const Var& a, const Var& b) {
  TRIAD_CHECK_MSG(a.shape() == b.shape(),
                  "AddReluFused: shapes must match: "
                      << a.value().ShapeString() << " vs "
                      << b.value().ShapeString());
  const int64_t n = a.size();
  Tensor out = Tensor::Uninitialized(a.value().shape());
  simd::AddRelu(a.value().data(), b.value().data(), out.data(), n);
  auto an = a.node();
  auto bn = b.node();
  return Var::MakeNode(std::move(out), {an, bn}, [an, bn, n](Node& nd) {
    if (!an->requires_grad && !bn->requires_grad) return;
    // The composite Relu(Add(a, b)) masks on the *rounded* sum; recomputing
    // it here is one add per element — cheaper than saving the forward
    // value alongside the node.
    Tensor g = Tensor::Uninitialized(an->value.shape());
    simd::AddReluMask(an->value.data(), bn->value.data(), nd.grad.data(),
                      g.data(), n);
    if (an->requires_grad) an->AccumulateGrad(g);
    if (bn->requires_grad) bn->AccumulateGrad(g);
  });
}

Var BiasAddReluFused(const Var& a, const Var& bias) {
  const auto& as = a.shape();
  const auto& bs = bias.shape();
  TRIAD_CHECK_MSG(
      bs.size() < as.size() &&
          std::equal(bs.begin(), bs.end(), as.end() - bs.size()),
      "BiasAddReluFused: bias must be a shape suffix: "
          << a.value().ShapeString() << " vs " << bias.value().ShapeString());
  const int64_t inner = bias.size();
  const int64_t n = a.size();
  const int64_t outer = n / inner;
  Tensor out = Tensor::Uninitialized(a.value().shape());
  const float* pa = a.value().data();
  const float* pb = bias.value().data();
  for (int64_t o = 0; o < outer; ++o) {
    // Rebase the bias row per outer index instead of evaluating
    // pb[i % inner] for every element.
    simd::AddRelu(pa + o * inner, pb, out.data() + o * inner, inner);
  }
  auto an = a.node();
  auto bn = bias.node();
  return Var::MakeNode(
      std::move(out), {an, bn}, [an, bn, outer, inner](Node& nd) {
        if (!an->requires_grad && !bn->requires_grad) return;
        const float* pa = an->value.data();
        const float* pb = bn->value.data();
        Tensor ga = Tensor::Uninitialized(an->value.shape());
        Tensor gb(bn->value.shape());  // Axpy accumulation target: needs zeros
        float* gbias = gb.data();
        for (int64_t o = 0; o < outer; ++o) {
          const float* arow = pa + o * inner;
          const float* dy = nd.grad.data() + o * inner;
          float* grow = ga.data() + o * inner;
          simd::AddReluMask(arow, pb, dy, grow, inner);
          // Ascending outer order — the exact accumulation sequence of the
          // composite Add's ReduceGradToShape (alpha=1 axpy adds the masked
          // row with no extra rounding).
          simd::Axpy(1.0f, grow, gbias, inner);
        }
        if (an->requires_grad) an->AccumulateGrad(ga);
        if (bn->requires_grad) bn->AccumulateGrad(gb);
      });
}

Var L2NormalizeFused(const Var& a, float eps) {
  TRIAD_CHECK_GE(a.value().ndim(), 1);
  const auto& shape = a.shape();
  const int64_t inner = shape.back();
  const int64_t outer = a.size() / inner;
  const float* x = a.value().data();
  Tensor out = Tensor::Uninitialized(shape);
  Tensor norms = Tensor::Uninitialized({outer});
  for (int64_t o = 0; o < outer; ++o) {
    const float* row = x + o * inner;
    // Same rounding chain as Square -> Sum (ascending float accumulation)
    // -> AddScalar -> Sqrt.
    float acc = 0.0f;
    for (int64_t i = 0; i < inner; ++i) acc += row[i] * row[i];
    const float norm = std::sqrt(std::max(acc + eps, kSqrtEps));
    norms[o] = norm;
    float* dst = out.data() + o * inner;
    for (int64_t i = 0; i < inner; ++i) dst[i] = row[i] / norm;
  }
  auto an = a.node();
  return Var::MakeNode(
      std::move(out), {an},
      [an, norms = std::move(norms), outer, inner](Node& nd) {
        if (!an->requires_grad) return;
        Tensor g = Tensor::Uninitialized(an->value.shape());
        const float* x = an->value.data();
        for (int64_t o = 0; o < outer; ++o) {
          const float* row = x + o * inner;
          const float* dy = nd.grad.data() + o * inner;
          float* dst = g.data() + o * inner;
          const float norm = norms[o];
          const float norm2 = norm * norm;
          // Div-backward elements reduced by the ExpandLastDim backward
          // (ascending float accumulation), then the Sqrt backward factor.
          float s = 0.0f;
          for (int64_t i = 0; i < inner; ++i) s += -dy[i] * row[i] / norm2;
          const float gs = s * (0.5f / std::max(norm, kSqrtEps));
          // dy/norm is the Div contribution, gs*2x the Square contribution;
          // adding them here matches the composite's two AccumulateGrad
          // calls bit for bit (the first lands in an exact zero tensor).
          for (int64_t i = 0; i < inner; ++i) {
            dst[i] = dy[i] / norm + gs * (2.0f * row[i]);
          }
        }
        an->AccumulateGrad(g);
      });
}

}  // namespace triad::nn::fused
