#ifndef TRIAD_NN_OPTIMIZER_H_
#define TRIAD_NN_OPTIMIZER_H_

#include <memory>
#include <vector>

#include "nn/variable.h"

namespace triad::nn {

/// \brief Adam optimizer (Kingma & Ba) over a fixed parameter set.
///
/// Parameters whose gradient was never touched in the current step are
/// skipped (their moments do not advance), matching the sparse-update
/// convention that suits per-domain training loops.
class Adam {
 public:
  explicit Adam(std::vector<Var> params, float lr = 1e-3f, float beta1 = 0.9f,
                float beta2 = 0.999f, float eps = 1e-8f);

  /// Applies one update using the gradients currently on the parameters,
  /// then leaves gradients untouched (call ZeroGrad separately).
  void Step();

  /// Clears every parameter's gradient.
  void ZeroGrad();

  /// Rescales gradients so their global L2 norm is at most `max_norm`.
  /// Returns the pre-clip norm.
  float ClipGradNorm(float max_norm);

 private:
  std::vector<Var> params_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  std::vector<int64_t> step_count_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
};

}  // namespace triad::nn

#endif  // TRIAD_NN_OPTIMIZER_H_
