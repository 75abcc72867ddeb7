#ifndef TRIAD_NN_KERNELS_H_
#define TRIAD_NN_KERNELS_H_

#include <cstdint>

namespace triad::nn::kernels {

/// \brief Shape-aware kernels for the encoder/dense hot paths: one kernel
/// per op, each over the whole batch.
///
/// These wrap the runtime-dispatched primitives of common/simd.h into the
/// loop nests ops.cc (MatMul, Conv1d) runs, and fan blocks of independent
/// output rows across DefaultPool(). Numerics follow the simd.h
/// determinism contract: Gemm, GemmTransA, Conv1d forward and Conv1d
/// input-gradient are pure axpy chains and therefore bit-identical across
/// SIMD tiers; GemmTransB and the Conv1d weight/bias gradients use the
/// double-accumulated reductions and may differ from the scalar tier by a
/// few ULPs (locked down by tests/kernel_equivalence_test.cc).
///
/// The primitives block independent outputs — several output rows share
/// each input load (ConvRowsAccum, CorrRowsAccum), several dots share each
/// converted operand (ConvTapDotTile) — and skip zero-weight and
/// out-of-range terms without a branch, by adding -0.0f. Per output
/// element every kernel still applies a fixed chain of terms: the chain of
/// the plain serial loop over simd::Axpy / Dot / Sum, with the same term
/// order and the same zero-weight skips. Each pool task writes a disjoint
/// set of output rows, and the task split depends on the shape only.
/// Results are therefore bit-identical at any thread count.
/// tests/nn_batched_test.cc keeps those serial loops as oracles and asserts
/// exact equality at both tiers and at 1 and 4 lanes.
///
/// All matrices are dense row-major. Conv1dForward writes every output
/// element; every other kernel *accumulates* into its output (callers pass
/// zeroed buffers).

/// Conv1d forward with *implicit* im2col over a pre-padded input:
///   out[b,co,t] = bias[co] + sum_{ci,k} w[co,ci,k] * xpad[b,ci,t+k*dilation]
/// `xpad` is [B, Cin, Lpad] and `out` is [B, Cout, Lout]; `bias` may be null
/// (zero). The tap gather happens inside simd::ConvRowsAccum's register
/// block — no column matrix is materialized (measured strictly slower;
/// ARCHITECTURE.md §11). Taps accumulate in (ci, k) order, zero weights
/// skipped; blocks of simd::kRowBlock output channels fan across the pool.
void Conv1dForward(const float* xpad, const float* w, const float* bias,
                   float* out, int64_t B, int64_t Cin, int64_t Cout, int64_t K,
                   int64_t Lpad, int64_t Lout, int64_t dilation);

/// Gradient w.r.t. the padded input:
///   gxpad[b,ci,t + k*dilation] += w[co,ci,k] * g[b,co,t]
/// applied per element in (co, k) order, zero weights skipped, via
/// simd::CorrRowsAccum; blocks of simd::kRowBlock (b, ci) rows are
/// independent pool tasks.
void Conv1dBackwardInput(const float* g, const float* w, float* gxpad,
                         int64_t B, int64_t Cin, int64_t Cout, int64_t K,
                         int64_t Lpad, int64_t Lout, int64_t dilation);

/// Gradient w.r.t. the weights:
///   gw[co,ci,k] += sum_t xpad[b,ci,t + k*dilation] * g[b,co,t]
/// one simd::Dot chain per (b, co, ci, k), computed in simd::ConvTapDotTile
/// tiles and added in ascending b order; blocks of co rows are independent
/// pool tasks.
void Conv1dBackwardWeight(const float* g, const float* xpad, float* gw,
                          int64_t B, int64_t Cin, int64_t Cout, int64_t K,
                          int64_t Lpad, int64_t Lout, int64_t dilation);

/// Gradient w.r.t. the bias: gb[co] += sum_{b,t} g[b,co,t], one simd::Sum
/// per (b, co) row, added in ascending b order.
void Conv1dBackwardBias(const float* g, float* gb, int64_t B, int64_t Cout,
                        int64_t Lout);

/// C[m,n] += A[m,k] * B[k,n]: per element the k terms in ascending order,
/// zero entries of A skipped; blocks of output rows fan across the pool.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n);

/// C[m,n] += A[k,m]^T * B[k,n]; each output row accumulates its k terms in
/// ascending order, zero entries of A skipped, reading its weights down a
/// column of A in place; blocks of output rows fan across the pool.
void GemmTransA(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n);

/// C[m,k] += A[m,n] * B[k,n]^T, one simd::Dot chain per output element,
/// computed in simd::ConvTapDotTile tiles (A rows x B rows); the m output
/// rows fan across the pool.
void GemmTransB(const float* a, const float* b, float* c, int64_t m, int64_t n,
                int64_t k);

}  // namespace triad::nn::kernels

#endif  // TRIAD_NN_KERNELS_H_
