#ifndef TRIAD_NN_OPS_H_
#define TRIAD_NN_OPS_H_

#include <cstdint>
#include <vector>

#include "nn/variable.h"

namespace triad::nn {

/// \file Differentiable tensor operations.
///
/// Every function returns a new Var whose node records the backward rule.
/// Binary elementwise ops support three shape patterns:
///   * identical shapes,
///   * right operand is a scalar (size 1),
///   * right operand's shape is a suffix of the left's (bias broadcast);
///     its gradient sums over the leading dimensions.
/// Anything else is a checked error.
///
/// Conv1d and MatMul run whole-batch kernels (nn/kernels.h) that fan their
/// output rows across DefaultPool(); AddRelu and L2NormalizeLastDim run the
/// fused single-pass kernels of nn/fused.h. Every op is bit-identical at any
/// thread count (ARCHITECTURE.md §11).

// ---------- elementwise binary ----------
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
Var Div(const Var& a, const Var& b);

// ---------- scalar ----------
Var AddScalar(const Var& a, float c);
Var MulScalar(const Var& a, float c);

// ---------- elementwise unary ----------
Var Neg(const Var& a);
Var Relu(const Var& a);
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Exp(const Var& a);
/// Natural log; input is clamped below at `eps` for numerical safety.
Var Log(const Var& a, float eps = 1e-12f);
Var Sqrt(const Var& a, float eps = 1e-12f);
Var Square(const Var& a);

// ---------- matrix ----------
/// Matrix product. Supported shapes:
///   [m,k] x [k,n] -> [m,n]
///   [b,m,k] x [k,n] -> [b,m,n]   (shared right operand)
///   [b,m,k] x [b,k,n] -> [b,m,n] (batched)
Var MatMul(const Var& a, const Var& b);

/// Swaps the last two axes of a rank-2 or rank-3 tensor.
Var TransposeLast2(const Var& a);

// ---------- convolution ----------
/// 1-D convolution (cross-correlation), stride 1.
///   input  [B, Cin, L], weight [Cout, Cin, K], bias [Cout] or empty Var.
/// Output [B, Cout, L + pad_left + pad_right - dilation*(K-1)].
Var Conv1d(const Var& input, const Var& weight, const Var& bias,
           int64_t dilation, int64_t pad_left, int64_t pad_right);

// ---------- reductions ----------
/// Sum of all elements -> scalar.
Var SumAll(const Var& a);
/// Mean of all elements -> scalar.
Var MeanAll(const Var& a);
/// Sum along one axis. keepdim retains a size-1 axis.
Var Sum(const Var& a, int axis, bool keepdim);
/// Mean along one axis. keepdim retains a size-1 axis.
Var Mean(const Var& a, int axis, bool keepdim);

// ---------- shape ----------
Var Reshape(const Var& a, std::vector<int64_t> shape);
/// Tiles a trailing size-1 axis up to `n` (e.g. [B,L,1] -> [B,L,n]);
/// the gradient sums back over the tiled axis.
Var ExpandLastDim(const Var& a, int64_t n);
/// Concatenates along `axis`; all other dims must match.
Var Concat(const std::vector<Var>& parts, int axis);
/// Contiguous slice [start, start+length) along `axis`.
Var Slice(const Var& a, int axis, int64_t start, int64_t length);

// ---------- softmax ----------
/// Numerically stable softmax over the last axis.
Var Softmax(const Var& a);

// ---------- composites (built from the primitives above) ----------
/// relu(a + b). Identical shapes and a suffix-broadcast right operand fuse
/// into one pass over memory with a single autograd node (nn/fused.h),
/// bit-identical to Relu(Add(a, b)); a scalar right operand lowers to that
/// composite.
Var AddRelu(const Var& a, const Var& b);
/// Rows scaled to unit L2 norm over the last axis, as one fused node
/// (nn/fused.h).
Var L2NormalizeLastDim(const Var& a, float eps = 1e-8f);
/// Mean of squared differences -> scalar.
Var MseLoss(const Var& pred, const Var& target);

/// Wraps a constant tensor (no gradient tracking) for masks etc.
Var Constant(Tensor value);

}  // namespace triad::nn

#endif  // TRIAD_NN_OPS_H_
