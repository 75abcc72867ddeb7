#ifndef TRIAD_CORE_TRAINER_H_
#define TRIAD_CORE_TRAINER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/model.h"

namespace triad::core {

/// \brief Per-epoch loss trajectory of a training run.
struct TrainStats {
  std::vector<double> epoch_train_loss;
  std::vector<double> epoch_val_loss;  ///< empty when no validation split
  int64_t train_windows = 0;
  int64_t val_windows = 0;
};

/// Mean training loss of one epoch. A zero-batch epoch returns NaN — it
/// must be distinguishable from a genuinely perfect (0.0) loss.
double EpochAverageLoss(double loss_sum, int64_t num_batches);

/// Seed for the per-epoch validation RNG stream: derived from the run seed
/// and the epoch only, so validating never advances (or depends on) the
/// training stream — changing validation_fraction cannot change the
/// training trajectory.
uint64_t ValidationSeed(uint64_t run_seed, int64_t epoch);

/// \brief Self-supervised contrastive training loop (paper Section IV-A3):
/// batches of normal windows paired with their segment-augmented twins,
/// Adam, and a 10% validation tail used to monitor generalization.
///
/// Threading: the domains run serially and every nn kernel — forward AND
/// backward — fans its rows across DefaultPool(). Augmentation (shared RNG)
/// and optimizer steps stay serial, so loss trajectories and trained
/// weights are bit-identical at any TRIAD_NUM_THREADS (see ARCHITECTURE.md
/// §3 and §11; enforced by tests/parallel_test.cc and
/// tests/nn_batched_test.cc).
class TriadTrainer {
 public:
  explicit TriadTrainer(const TriadConfig& config) : config_(config) {}

  /// Trains `model` in place on anomaly-free windows. `period` drives the
  /// residual-domain decomposition; `rng` drives shuffling and augmentation.
  Result<TrainStats> Fit(const std::vector<std::vector<double>>& windows,
                         int64_t period, TriadModel* model, Rng* rng) const;

 private:
  TriadConfig config_;
};

}  // namespace triad::core

#endif  // TRIAD_CORE_TRAINER_H_
