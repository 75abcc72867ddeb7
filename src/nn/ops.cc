#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "common/simd.h"
#include "nn/fused.h"
#include "nn/kernels.h"

namespace triad::nn {
namespace {

// Broadcast pattern of a binary op's right operand.
enum class Bcast { kSame, kScalar, kSuffix };

Bcast ClassifyBroadcast(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) return Bcast::kSame;
  if (b.size() == 1) return Bcast::kScalar;
  const auto& as = a.shape();
  const auto& bs = b.shape();
  if (bs.size() < as.size() &&
      std::equal(bs.begin(), bs.end(), as.end() - bs.size())) {
    return Bcast::kSuffix;
  }
  TRIAD_CHECK_MSG(false, "incompatible broadcast: " << a.ShapeString()
                                                    << " vs " << b.ShapeString());
}

// Reduces `grad` (shaped like the op output) to `b_shape` under the given
// broadcast pattern: identity, sum-to-scalar, or sum over leading dims.
Tensor ReduceGradToShape(const Tensor& grad, const std::vector<int64_t>& b_shape,
                         Bcast pattern) {
  if (pattern == Bcast::kSame) return grad;
  if (pattern == Bcast::kScalar) {
    double s = 0.0;
    for (int64_t i = 0; i < grad.size(); ++i) s += grad[i];
    Tensor out(b_shape);
    out[0] = static_cast<float>(s);
    return out;
  }
  Tensor out(b_shape);
  const int64_t inner = out.size();
  const int64_t outer = grad.size() / inner;
  for (int64_t o = 0; o < outer; ++o) {
    const float* g = grad.data() + o * inner;
    float* dst = out.data();
    for (int64_t i = 0; i < inner; ++i) dst[i] += g[i];
  }
  return out;
}

// Visits f(i, b_broadcast_at_i) for i in [0, n). The suffix pattern walks
// nested outer/inner loops (rebasing the row pointer per outer index)
// rather than evaluating `i % inner` per element.
template <typename F>
void ForEachBroadcast(const Tensor& b, Bcast pattern, int64_t n, F f) {
  const float* pb = b.data();
  if (pattern == Bcast::kSame) {
    for (int64_t i = 0; i < n; ++i) f(i, pb[i]);
  } else if (pattern == Bcast::kScalar) {
    const float c = pb[0];
    for (int64_t i = 0; i < n; ++i) f(i, c);
  } else {
    const int64_t inner = b.size();
    for (int64_t o = 0; o < n; o += inner) {
      for (int64_t i = 0; i < inner; ++i) f(o + i, pb[i]);
    }
  }
}

// Builds the forward value of a binary elementwise op.
template <typename F>
Tensor BinaryForward(const Tensor& a, const Tensor& b, Bcast pattern, F f) {
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  ForEachBroadcast(b, pattern, a.size(),
                   [pa, po, f](int64_t i, float bv) { po[i] = f(pa[i], bv); });
  return out;
}

}  // namespace

Var Constant(Tensor value) { return Var(std::move(value), false); }

Var Add(const Var& a, const Var& b) {
  const Bcast pattern = ClassifyBroadcast(a.value(), b.value());
  Tensor out = Tensor::Uninitialized(a.value().shape());
  if (pattern == Bcast::kSame) {
    simd::Add(a.value().data(), b.value().data(), out.data(), out.size());
  } else {
    out = BinaryForward(a.value(), b.value(), pattern,
                        [](float x, float y) { return x + y; });
  }
  auto an = a.node();
  auto bn = b.node();
  return Var::MakeNode(std::move(out), {an, bn}, [an, bn, pattern](Node& n) {
    if (an->requires_grad) an->AccumulateGrad(n.grad);
    if (bn->requires_grad) {
      bn->AccumulateGrad(
          ReduceGradToShape(n.grad, bn->value.shape(), pattern));
    }
  });
}

Var Sub(const Var& a, const Var& b) {
  const Bcast pattern = ClassifyBroadcast(a.value(), b.value());
  Tensor out = BinaryForward(a.value(), b.value(), pattern,
                             [](float x, float y) { return x - y; });
  auto an = a.node();
  auto bn = b.node();
  return Var::MakeNode(std::move(out), {an, bn}, [an, bn, pattern](Node& n) {
    if (an->requires_grad) an->AccumulateGrad(n.grad);
    if (bn->requires_grad) {
      Tensor neg = n.grad;
      neg.ScaleInPlace(-1.0f);
      bn->AccumulateGrad(ReduceGradToShape(neg, bn->value.shape(), pattern));
    }
  });
}

Var Mul(const Var& a, const Var& b) {
  const Bcast pattern = ClassifyBroadcast(a.value(), b.value());
  Tensor out = Tensor::Uninitialized(a.value().shape());
  if (pattern == Bcast::kSame) {
    simd::Mul(a.value().data(), b.value().data(), out.data(), out.size());
  } else {
    out = BinaryForward(a.value(), b.value(), pattern,
                        [](float x, float y) { return x * y; });
  }
  auto an = a.node();
  auto bn = b.node();
  return Var::MakeNode(std::move(out), {an, bn}, [an, bn, pattern](Node& n) {
    const int64_t total = n.grad.size();
    if (an->requires_grad) {
      Tensor da = Tensor::Uninitialized(an->value.shape());
      const float* g = n.grad.data();
      float* dst = da.data();
      ForEachBroadcast(bn->value, pattern, total,
                       [g, dst](int64_t i, float bv) { dst[i] = g[i] * bv; });
      an->AccumulateGrad(da);
    }
    if (bn->requires_grad) {
      Tensor full = Tensor::Uninitialized(an->value.shape());
      for (int64_t i = 0; i < total; ++i) full[i] = n.grad[i] * an->value[i];
      bn->AccumulateGrad(ReduceGradToShape(full, bn->value.shape(), pattern));
    }
  });
}

Var Div(const Var& a, const Var& b) {
  const Bcast pattern = ClassifyBroadcast(a.value(), b.value());
  Tensor out = BinaryForward(a.value(), b.value(), pattern,
                             [](float x, float y) { return x / y; });
  auto an = a.node();
  auto bn = b.node();
  return Var::MakeNode(std::move(out), {an, bn}, [an, bn, pattern](Node& n) {
    const int64_t total = n.grad.size();
    if (an->requires_grad) {
      Tensor da = Tensor::Uninitialized(an->value.shape());
      const float* g = n.grad.data();
      float* dst = da.data();
      ForEachBroadcast(bn->value, pattern, total,
                       [g, dst](int64_t i, float bv) { dst[i] = g[i] / bv; });
      an->AccumulateGrad(da);
    }
    if (bn->requires_grad) {
      Tensor full = Tensor::Uninitialized(an->value.shape());
      const float* g = n.grad.data();
      const float* x = an->value.data();
      float* dst = full.data();
      ForEachBroadcast(bn->value, pattern, total,
                       [g, x, dst](int64_t i, float y) {
                         dst[i] = -g[i] * x[i] / (y * y);
                       });
      bn->AccumulateGrad(ReduceGradToShape(full, bn->value.shape(), pattern));
    }
  });
}

Var AddScalar(const Var& a, float c) {
  Tensor out = a.value();
  float* p = out.data();
  for (int64_t i = 0; i < out.size(); ++i) p[i] += c;
  auto an = a.node();
  return Var::MakeNode(std::move(out), {an}, [an](Node& n) {
    if (an->requires_grad) an->AccumulateGrad(n.grad);
  });
}

Var MulScalar(const Var& a, float c) {
  Tensor out = a.value();
  out.ScaleInPlace(c);
  auto an = a.node();
  return Var::MakeNode(std::move(out), {an}, [an, c](Node& n) {
    if (!an->requires_grad) return;
    Tensor g = n.grad;
    g.ScaleInPlace(c);
    an->AccumulateGrad(g);
  });
}

Var Neg(const Var& a) { return MulScalar(a, -1.0f); }

namespace {

// Shared scaffolding for unary elementwise ops. `dfn` maps (x, y) -> dy/dx
// where y = fn(x).
template <typename Fn, typename Dfn>
Var UnaryOp(const Var& a, Fn fn, Dfn dfn) {
  Tensor out = Tensor::Uninitialized(a.value().shape());
  const int64_t n = out.size();
  for (int64_t i = 0; i < n; ++i) out[i] = fn(a.value()[i]);
  auto an = a.node();
  // Capture the output by value so dfn can use y without recomputation.
  Tensor saved = out;
  return Var::MakeNode(std::move(out), {an},
                       [an, dfn, saved = std::move(saved)](Node& nd) {
                         if (!an->requires_grad) return;
                         Tensor g = Tensor::Uninitialized(an->value.shape());
                         const int64_t m = g.size();
                         for (int64_t i = 0; i < m; ++i) {
                           g[i] = nd.grad[i] * dfn(an->value[i], saved[i]);
                         }
                         an->AccumulateGrad(g);
                       });
}

}  // namespace

Var Relu(const Var& a) {
  // Dedicated path (not UnaryOp): the forward is the vectorized kernel and
  // the backward masks the incoming gradient without materializing a
  // derivative tensor per element.
  Tensor out = Tensor::Uninitialized(a.value().shape());
  simd::Relu(a.value().data(), out.data(), out.size());
  auto an = a.node();
  return Var::MakeNode(std::move(out), {an}, [an](Node& nd) {
    if (!an->requires_grad) return;
    Tensor g = Tensor::Uninitialized(an->value.shape());
    simd::ReluMask(an->value.data(), nd.grad.data(), g.data(), g.size());
    an->AccumulateGrad(g);
  });
}

Var Sigmoid(const Var& a) {
  return UnaryOp(
      a,
      [](float x) {
        if (x >= 0) {
          const float z = std::exp(-x);
          return 1.0f / (1.0f + z);
        }
        const float z = std::exp(x);
        return z / (1.0f + z);
      },
      [](float, float y) { return y * (1.0f - y); });
}

Var Tanh(const Var& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Var Exp(const Var& a) {
  return UnaryOp(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Var Log(const Var& a, float eps) {
  return UnaryOp(
      a, [eps](float x) { return std::log(std::max(x, eps)); },
      [eps](float x, float) { return 1.0f / std::max(x, eps); });
}

Var Sqrt(const Var& a, float eps) {
  return UnaryOp(
      a, [eps](float x) { return std::sqrt(std::max(x, eps)); },
      [eps](float x, float y) {
        (void)x;
        return 0.5f / std::max(y, eps);
      });
}

Var Square(const Var& a) {
  return UnaryOp(
      a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

// The GEMM kernels (row-parallel over runtime-dispatched axpy/dot rows)
// live in nn/kernels.cc.
using kernels::Gemm;
using kernels::GemmTransA;
using kernels::GemmTransB;

Var MatMul(const Var& a, const Var& b) {
  const Tensor& av = a.value();
  const Tensor& bv = b.value();
  auto an = a.node();
  auto bn = b.node();

  if (av.ndim() == 2 && bv.ndim() == 2) {
    const int64_t m = av.dim(0), k = av.dim(1), n = bv.dim(1);
    TRIAD_CHECK_EQ(bv.dim(0), k);
    Tensor out({m, n});
    Gemm(av.data(), bv.data(), out.data(), m, k, n);
    return Var::MakeNode(
        std::move(out), {an, bn}, [an, bn, m, k, n](Node& nd) {
          if (an->requires_grad) {
            Tensor da({m, k});
            GemmTransB(nd.grad.data(), bn->value.data(), da.data(), m, n, k);
            an->AccumulateGrad(da);
          }
          if (bn->requires_grad) {
            Tensor db({k, n});
            GemmTransA(an->value.data(), nd.grad.data(), db.data(), k, m, n);
            bn->AccumulateGrad(db);
          }
        });
  }

  if (av.ndim() == 3 && bv.ndim() == 2) {
    const int64_t bsz = av.dim(0), m = av.dim(1), k = av.dim(2), n = bv.dim(1);
    TRIAD_CHECK_EQ(bv.dim(0), k);
    // The shared right operand makes [b,m,k] x [k,n] a single flattened
    // [b*m,k] x [k,n] product: the same per-row kernel over the same rows
    // as a per-batch loop, and GemmTransA's p-ascending accumulation order
    // is the batch-then-row order, so flattening changes no bit.
    Tensor out({bsz, m, n});
    Gemm(av.data(), bv.data(), out.data(), bsz * m, k, n);
    return Var::MakeNode(
        std::move(out), {an, bn}, [an, bn, bsz, m, k, n](Node& nd) {
          if (an->requires_grad) {
            Tensor da({bsz, m, k});
            GemmTransB(nd.grad.data(), bn->value.data(), da.data(), bsz * m, n,
                       k);
            an->AccumulateGrad(da);
          }
          if (bn->requires_grad) {
            Tensor db({k, n});
            GemmTransA(an->value.data(), nd.grad.data(), db.data(), k, bsz * m,
                       n);
            bn->AccumulateGrad(db);
          }
        });
  }

  if (av.ndim() == 3 && bv.ndim() == 3) {
    const int64_t bsz = av.dim(0), m = av.dim(1), k = av.dim(2), n = bv.dim(2);
    TRIAD_CHECK_EQ(bv.dim(0), bsz);
    TRIAD_CHECK_EQ(bv.dim(1), k);
    Tensor out({bsz, m, n});
    for (int64_t i = 0; i < bsz; ++i) {
      Gemm(av.data() + i * m * k, bv.data() + i * k * n,
           out.data() + i * m * n, m, k, n);
    }
    return Var::MakeNode(
        std::move(out), {an, bn}, [an, bn, bsz, m, k, n](Node& nd) {
          if (an->requires_grad) {
            Tensor da({bsz, m, k});
            for (int64_t i = 0; i < bsz; ++i) {
              GemmTransB(nd.grad.data() + i * m * n, bn->value.data() + i * k * n,
                         da.data() + i * m * k, m, n, k);
            }
            an->AccumulateGrad(da);
          }
          if (bn->requires_grad) {
            Tensor db({bsz, k, n});
            for (int64_t i = 0; i < bsz; ++i) {
              GemmTransA(an->value.data() + i * m * k,
                         nd.grad.data() + i * m * n, db.data() + i * k * n, k,
                         m, n);
            }
            bn->AccumulateGrad(db);
          }
        });
  }

  TRIAD_CHECK_MSG(false, "MatMul: unsupported shapes " << av.ShapeString()
                                                       << " x "
                                                       << bv.ShapeString());
}

namespace {

Tensor TransposeLast2Tensor(const Tensor& t) {
  TRIAD_CHECK_GE(t.ndim(), 2);
  const int64_t m = t.dim(t.ndim() - 2);
  const int64_t n = t.dim(t.ndim() - 1);
  int64_t batch = 1;
  for (int i = 0; i + 2 < t.ndim(); ++i) batch *= t.dim(i);
  std::vector<int64_t> out_shape = t.shape();
  std::swap(out_shape[out_shape.size() - 2], out_shape.back());
  Tensor out = Tensor::Uninitialized(out_shape);
  for (int64_t s = 0; s < batch; ++s) {
    const float* src = t.data() + s * m * n;
    float* dst = out.data() + s * m * n;
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) dst[j * m + i] = src[i * n + j];
    }
  }
  return out;
}

}  // namespace

Var TransposeLast2(const Var& a) {
  Tensor out = TransposeLast2Tensor(a.value());
  auto an = a.node();
  return Var::MakeNode(std::move(out), {an}, [an](Node& nd) {
    if (an->requires_grad) an->AccumulateGrad(TransposeLast2Tensor(nd.grad));
  });
}

Var Conv1d(const Var& input, const Var& weight, const Var& bias,
           int64_t dilation, int64_t pad_left, int64_t pad_right) {
  const Tensor& x = input.value();
  const Tensor& w = weight.value();
  TRIAD_CHECK_EQ(x.ndim(), 3);
  TRIAD_CHECK_EQ(w.ndim(), 3);
  const int64_t B = x.dim(0), Cin = x.dim(1), L = x.dim(2);
  const int64_t Cout = w.dim(0), K = w.dim(2);
  TRIAD_CHECK_EQ(w.dim(1), Cin);
  TRIAD_CHECK_GE(dilation, 1);
  const int64_t Lpad = L + pad_left + pad_right;
  const int64_t Lout = Lpad - dilation * (K - 1);
  TRIAD_CHECK_MSG(Lout >= 1, "Conv1d output would be empty: L=" << L << " K="
                                                                << K);
  const bool has_bias = !bias.empty();
  if (has_bias) {
    TRIAD_CHECK_EQ(bias.value().ndim(), 1);
    TRIAD_CHECK_EQ(bias.value().dim(0), Cout);
  }

  // Materialize the zero-padded input once; both passes index into it.
  Tensor xpad({B, Cin, Lpad});
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t c = 0; c < Cin; ++c) {
      const float* src = x.data() + (b * Cin + c) * L;
      float* dst = xpad.data() + (b * Cin + c) * Lpad + pad_left;
      std::copy(src, src + L, dst);
    }
  }

  // Whole batch with implicit im2col: one fused register-blocked row
  // accumulation per (channel, window) pair, channels fanned across the
  // pool. The kernel writes every output element, bias included.
  Tensor out = Tensor::Uninitialized({B, Cout, Lout});
  kernels::Conv1dForward(xpad.data(), w.data(),
                         has_bias ? bias.value().data() : nullptr, out.data(),
                         B, Cin, Cout, K, Lpad, Lout, dilation);

  auto xn = input.node();
  auto wn = weight.node();
  std::vector<std::shared_ptr<Node>> parents = {xn, wn};
  std::shared_ptr<Node> bnode;
  if (has_bias) {
    bnode = bias.node();
    parents.push_back(bnode);
  }

  return Var::MakeNode(
      std::move(out), std::move(parents),
      [xn, wn, bnode, xpad = std::move(xpad), B, Cin, Cout, K, L, Lpad, Lout,
       dilation, pad_left](Node& nd) {
        const Tensor& g = nd.grad;
        if (xn->requires_grad) {
          Tensor gxpad({B, Cin, Lpad});
          kernels::Conv1dBackwardInput(g.data(), wn->value.data(), gxpad.data(),
                                       B, Cin, Cout, K, Lpad, Lout, dilation);
          Tensor gx = Tensor::Uninitialized({B, Cin, L});
          for (int64_t b = 0; b < B; ++b) {
            for (int64_t c = 0; c < Cin; ++c) {
              const float* src = gxpad.data() + (b * Cin + c) * Lpad + pad_left;
              float* dst = gx.data() + (b * Cin + c) * L;
              std::copy(src, src + L, dst);
            }
          }
          xn->AccumulateGrad(gx);
        }
        if (wn->requires_grad) {
          Tensor gw({Cout, Cin, K});
          kernels::Conv1dBackwardWeight(g.data(), xpad.data(), gw.data(), B,
                                        Cin, Cout, K, Lpad, Lout, dilation);
          wn->AccumulateGrad(gw);
        }
        if (bnode && bnode->requires_grad) {
          Tensor gb({Cout});
          kernels::Conv1dBackwardBias(g.data(), gb.data(), B, Cout, Lout);
          bnode->AccumulateGrad(gb);
        }
      });
}

Var SumAll(const Var& a) {
  const double s = simd::Sum(a.value().data(), a.value().size());
  auto an = a.node();
  return Var::MakeNode(Tensor::Scalar(static_cast<float>(s)), {an},
                       [an](Node& nd) {
                         if (!an->requires_grad) return;
                         an->AccumulateGrad(
                             Tensor::Full(an->value.shape(), nd.grad[0]));
                       });
}

Var MeanAll(const Var& a) {
  return MulScalar(SumAll(a), 1.0f / static_cast<float>(a.value().size()));
}

namespace {

// Decomposes a shape around `axis` into (outer, axis_len, inner) products.
void AxisFactors(const std::vector<int64_t>& shape, int axis, int64_t* outer,
                 int64_t* axis_len, int64_t* inner) {
  TRIAD_CHECK(axis >= 0 && axis < static_cast<int>(shape.size()));
  *outer = 1;
  *inner = 1;
  for (int i = 0; i < axis; ++i) *outer *= shape[static_cast<size_t>(i)];
  *axis_len = shape[static_cast<size_t>(axis)];
  for (size_t i = static_cast<size_t>(axis) + 1; i < shape.size(); ++i) {
    *inner *= shape[i];
  }
}

std::vector<int64_t> ReducedShape(const std::vector<int64_t>& shape, int axis,
                                  bool keepdim) {
  std::vector<int64_t> out = shape;
  if (keepdim) {
    out[static_cast<size_t>(axis)] = 1;
  } else {
    out.erase(out.begin() + axis);
  }
  return out;
}

}  // namespace

Var Sum(const Var& a, int axis, bool keepdim) {
  int64_t outer, axis_len, inner;
  AxisFactors(a.shape(), axis, &outer, &axis_len, &inner);
  Tensor out(ReducedShape(a.shape(), axis, keepdim));
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t x = 0; x < axis_len; ++x) {
      const float* src = a.value().data() + (o * axis_len + x) * inner;
      float* dst = out.data() + o * inner;
      for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
    }
  }
  auto an = a.node();
  return Var::MakeNode(std::move(out), {an},
                       [an, outer, axis_len, inner](Node& nd) {
                         if (!an->requires_grad) return;
                         Tensor g(an->value.shape());
                         for (int64_t o = 0; o < outer; ++o) {
                           const float* src = nd.grad.data() + o * inner;
                           for (int64_t x = 0; x < axis_len; ++x) {
                             float* dst = g.data() + (o * axis_len + x) * inner;
                             for (int64_t i = 0; i < inner; ++i) {
                               dst[i] += src[i];
                             }
                           }
                         }
                         an->AccumulateGrad(g);
                       });
}

Var Mean(const Var& a, int axis, bool keepdim) {
  const int64_t axis_len = a.shape()[static_cast<size_t>(axis)];
  return MulScalar(Sum(a, axis, keepdim), 1.0f / static_cast<float>(axis_len));
}

Var Reshape(const Var& a, std::vector<int64_t> shape) {
  Tensor out = a.value().Reshaped(std::move(shape));
  auto an = a.node();
  return Var::MakeNode(std::move(out), {an}, [an](Node& nd) {
    if (an->requires_grad) {
      an->AccumulateGrad(nd.grad.Reshaped(an->value.shape()));
    }
  });
}

Var ExpandLastDim(const Var& a, int64_t n) {
  const Tensor& v = a.value();
  TRIAD_CHECK_GE(v.ndim(), 1);
  TRIAD_CHECK_EQ(v.shape().back(), 1);
  std::vector<int64_t> out_shape = v.shape();
  out_shape.back() = n;
  Tensor out = Tensor::Uninitialized(out_shape);
  const int64_t rows = v.size();
  for (int64_t r = 0; r < rows; ++r) {
    float* dst = out.data() + r * n;
    const float val = v[r];
    for (int64_t i = 0; i < n; ++i) dst[i] = val;
  }
  auto an = a.node();
  return Var::MakeNode(std::move(out), {an}, [an, n, rows](Node& nd) {
    if (!an->requires_grad) return;
    Tensor g = Tensor::Uninitialized(an->value.shape());
    for (int64_t r = 0; r < rows; ++r) {
      const float* src = nd.grad.data() + r * n;
      float s = 0.0f;
      for (int64_t i = 0; i < n; ++i) s += src[i];
      g[r] = s;
    }
    an->AccumulateGrad(g);
  });
}

Var Concat(const std::vector<Var>& parts, int axis) {
  TRIAD_CHECK(!parts.empty());
  const auto& first_shape = parts[0].shape();
  int64_t outer, inner, unused_axis;
  AxisFactors(first_shape, axis, &outer, &unused_axis, &inner);
  int64_t total_axis = 0;
  std::vector<int64_t> axis_lens;
  for (const auto& p : parts) {
    const auto& s = p.shape();
    TRIAD_CHECK_EQ(s.size(), first_shape.size());
    for (size_t i = 0; i < s.size(); ++i) {
      if (static_cast<int>(i) != axis) TRIAD_CHECK_EQ(s[i], first_shape[i]);
    }
    axis_lens.push_back(s[static_cast<size_t>(axis)]);
    total_axis += s[static_cast<size_t>(axis)];
  }
  std::vector<int64_t> out_shape = first_shape;
  out_shape[static_cast<size_t>(axis)] = total_axis;
  Tensor out = Tensor::Uninitialized(out_shape);
  int64_t offset = 0;
  for (size_t pi = 0; pi < parts.size(); ++pi) {
    const Tensor& v = parts[pi].value();
    const int64_t alen = axis_lens[pi];
    for (int64_t o = 0; o < outer; ++o) {
      const float* src = v.data() + o * alen * inner;
      float* dst = out.data() + (o * total_axis + offset) * inner;
      std::copy(src, src + alen * inner, dst);
    }
    offset += alen;
  }
  std::vector<std::shared_ptr<Node>> parents;
  parents.reserve(parts.size());
  for (const auto& p : parts) parents.push_back(p.node());
  return Var::MakeNode(
      std::move(out), parents,
      [parents, axis_lens, outer, inner, total_axis](Node& nd) {
        int64_t off = 0;
        for (size_t pi = 0; pi < parents.size(); ++pi) {
          const int64_t alen = axis_lens[pi];
          if (parents[pi]->requires_grad) {
            Tensor g = Tensor::Uninitialized(parents[pi]->value.shape());
            for (int64_t o = 0; o < outer; ++o) {
              const float* src = nd.grad.data() + (o * total_axis + off) * inner;
              float* dst = g.data() + o * alen * inner;
              std::copy(src, src + alen * inner, dst);
            }
            parents[pi]->AccumulateGrad(g);
          }
          off += alen;
        }
      });
}

Var Slice(const Var& a, int axis, int64_t start, int64_t length) {
  int64_t outer, axis_len, inner;
  AxisFactors(a.shape(), axis, &outer, &axis_len, &inner);
  TRIAD_CHECK(start >= 0 && length >= 1 && start + length <= axis_len);
  std::vector<int64_t> out_shape = a.shape();
  out_shape[static_cast<size_t>(axis)] = length;
  Tensor out = Tensor::Uninitialized(out_shape);
  for (int64_t o = 0; o < outer; ++o) {
    const float* src = a.value().data() + (o * axis_len + start) * inner;
    float* dst = out.data() + o * length * inner;
    std::copy(src, src + length * inner, dst);
  }
  auto an = a.node();
  return Var::MakeNode(
      std::move(out), {an},
      [an, outer, axis_len, inner, start, length](Node& nd) {
        if (!an->requires_grad) return;
        Tensor g(an->value.shape());
        for (int64_t o = 0; o < outer; ++o) {
          const float* src = nd.grad.data() + o * length * inner;
          float* dst = g.data() + (o * axis_len + start) * inner;
          std::copy(src, src + length * inner, dst);
        }
        an->AccumulateGrad(g);
      });
}

Var Softmax(const Var& a) {
  const Tensor& v = a.value();
  TRIAD_CHECK_GE(v.ndim(), 1);
  const int64_t n = v.shape().back();
  const int64_t rows = v.size() / n;
  Tensor out = Tensor::Uninitialized(v.shape());
  for (int64_t r = 0; r < rows; ++r) {
    const float* src = v.data() + r * n;
    float* dst = out.data() + r * n;
    float mx = src[0];
    for (int64_t i = 1; i < n; ++i) mx = std::max(mx, src[i]);
    float denom = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
      dst[i] = std::exp(src[i] - mx);
      denom += dst[i];
    }
    const float inv = 1.0f / denom;
    for (int64_t i = 0; i < n; ++i) dst[i] *= inv;
  }
  auto an = a.node();
  Tensor saved = out;
  return Var::MakeNode(std::move(out), {an},
                       [an, saved = std::move(saved), rows, n](Node& nd) {
                         if (!an->requires_grad) return;
                         Tensor g = Tensor::Uninitialized(an->value.shape());
                         for (int64_t r = 0; r < rows; ++r) {
                           const float* y = saved.data() + r * n;
                           const float* dy = nd.grad.data() + r * n;
                           float dot = 0.0f;
                           for (int64_t i = 0; i < n; ++i) dot += y[i] * dy[i];
                           float* dst = g.data() + r * n;
                           for (int64_t i = 0; i < n; ++i) {
                             dst[i] = y[i] * (dy[i] - dot);
                           }
                         }
                         an->AccumulateGrad(g);
                       });
}

Var AddRelu(const Var& a, const Var& b) {
  const Bcast pattern = ClassifyBroadcast(a.value(), b.value());
  if (pattern == Bcast::kSame) return fused::AddReluFused(a, b);
  if (pattern == Bcast::kSuffix) return fused::BiasAddReluFused(a, b);
  // kScalar is not on a hot path; it lowers to the composite.
  return Relu(Add(a, b));
}

Var L2NormalizeLastDim(const Var& a, float eps) {
  return fused::L2NormalizeFused(a, eps);
}

Var MseLoss(const Var& pred, const Var& target) {
  return MeanAll(Square(Sub(pred, target)));
}

}  // namespace triad::nn
