#ifndef TRIAD_NN_FUSED_H_
#define TRIAD_NN_FUSED_H_

#include "nn/variable.h"

namespace triad::nn::fused {

/// \file Fused elementwise chains with hand-written backward passes.
///
/// Each entry point replaces a composite of primitive ops (ops.h) with one
/// pass over memory and a single autograd node recorded on the Var seam
/// (Var::MakeNode). Chains with a dedicated runtime-dispatched kernel
/// (simd::AddRelu / simd::AddReluMask) call it — one *vector* pass; the
/// per-row normalize scale is a plain scalar loop.
///
/// Numerics contract: every fused op performs the exact per-element IEEE
/// operation sequence of the composite it replaces (fused.cc is compiled
/// with -ffp-contract=off so the compiler cannot fuse the written mul/add
/// chains), so forward values AND accumulated gradients are BIT-IDENTICAL
/// to the unfused graph — asserted by tests/nn_batched_test.cc against
/// Relu(Add(a, b)) and the Square/Sum/AddScalar/Sqrt/ExpandLastDim/Div
/// composite.

/// relu(a + b) for identical shapes, as one pass + one autograd node.
Var AddReluFused(const Var& a, const Var& b);

/// relu(a + bias) where bias is a suffix broadcast (e.g. [B,L,H] + [H]);
/// the bias gradient sums over the leading dims in ascending outer order,
/// exactly as the composite Add's ReduceGradToShape.
Var BiasAddReluFused(const Var& a, const Var& bias);

/// Rows scaled to unit L2 norm over the last axis, matching the composite
/// Div(a, ExpandLastDim(Sqrt(AddScalar(Sum(Square(a)), eps)))) bit for bit
/// with one node instead of six.
Var L2NormalizeFused(const Var& a, float eps);

}  // namespace triad::nn::fused

#endif  // TRIAD_NN_FUSED_H_
