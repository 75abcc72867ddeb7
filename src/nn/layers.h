#ifndef TRIAD_NN_LAYERS_H_
#define TRIAD_NN_LAYERS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/ops.h"
#include "nn/variable.h"

namespace triad::nn {

/// \brief Base class for anything that owns trainable parameters.
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameters (leaf Vars with requires_grad = true).
  virtual std::vector<Var> Parameters() const = 0;

  /// Total number of scalar parameters.
  int64_t ParameterCount() const;

  /// Clears gradients on every parameter.
  void ZeroGrad() const;
};

/// \brief Affine map  y = x W + b  applied over the last axis.
///
/// Accepts [*, in] inputs of rank 2 or 3. The matmuls (forward and both
/// gradients) route through the dispatched SIMD kernels of nn/kernels.h;
/// see ARCHITECTURE.md §4 for the per-kernel determinism classes.
class Linear : public Module {
 public:
  /// Xavier-uniform initialized weights; `rng` drives the initialization.
  Linear(int64_t in_features, int64_t out_features, Rng* rng,
         bool with_bias = true);

  Var Forward(const Var& x) const;
  /// relu(x W + b): the bias add and the relu fuse into one pass
  /// (bit-identical to Relu(Forward(x))).
  Var ForwardRelu(const Var& x) const;
  std::vector<Var> Parameters() const override;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Var weight_;  // [in, out]
  Var bias_;    // [out] or empty
};

/// \brief Dilated 1-D convolution with "same" output length (stride 1).
class Conv1dLayer : public Module {
 public:
  Conv1dLayer(int64_t in_channels, int64_t out_channels, int64_t kernel_size,
              int64_t dilation, Rng* rng, bool with_bias = true);

  /// x: [B, Cin, L] -> [B, Cout, L].
  Var Forward(const Var& x) const;
  std::vector<Var> Parameters() const override;

  int64_t dilation() const { return dilation_; }

 private:
  int64_t kernel_size_;
  int64_t dilation_;
  Var weight_;  // [Cout, Cin, K]
  Var bias_;    // [Cout] or empty
};

/// \brief Single-layer LSTM unrolled over time (autograd handles BPTT).
class Lstm : public Module {
 public:
  Lstm(int64_t input_size, int64_t hidden_size, Rng* rng);

  /// x: [B, T, input]; returns all hidden states [B, T, hidden].
  Var Forward(const Var& x) const;
  /// As Forward but also exposes the final hidden state [B, hidden].
  Var Forward(const Var& x, Var* final_hidden) const;

  std::vector<Var> Parameters() const override;
  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  Var w_ih_;  // [input, 4H] (i, f, g, o gate order)
  Var w_hh_;  // [H, 4H]
  Var bias_;  // [4H]
};

/// \brief Residual block of two same-padded dilated convolutions with ReLU,
/// as used by the TriAD encoder and TS2Vec-lite.
///
/// If channel counts differ, the skip path uses a 1x1 projection.
class DilatedResidualBlock : public Module {
 public:
  DilatedResidualBlock(int64_t in_channels, int64_t out_channels,
                       int64_t kernel_size, int64_t dilation, Rng* rng);

  /// x: [B, Cin, L] -> [B, Cout, L].
  Var Forward(const Var& x) const;
  std::vector<Var> Parameters() const override;

 private:
  Conv1dLayer conv1_;
  Conv1dLayer conv2_;
  std::unique_ptr<Conv1dLayer> projection_;  // null when Cin == Cout
};

}  // namespace triad::nn

#endif  // TRIAD_NN_LAYERS_H_
