#include "core/trainer.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/augmentation.h"
#include "core/features.h"
#include "nn/ops.h"
#include "nn/optimizer.h"

namespace triad::core {
namespace {

using nn::Var;

// Builds normalized representations of originals and augmentations for one
// batch, returning the scalar loss Var.
//
// The domains run serially; each op fans its own row loops across the whole
// pool (nn/kernels.h), forward and backward alike. Results are bit-identical
// at every thread count: the kernels keep a fixed per-element accumulation
// order, and the loss combines the domain slots in a fixed order.
// Augmentation stays serial because it advances the shared RNG.
Var BatchLoss(const TriadModel& model,
              const std::vector<std::vector<double>>& originals,
              int64_t period, Rng* rng) {
  std::vector<std::vector<double>> augmented = originals;
  {
    trace::TraceSpan span("trainer.augment");
    for (auto& w : augmented) AugmentWindow(&w, rng);
  }

  trace::TraceSpan forward_span("trainer.forward");
  const std::vector<Domain> domains = model.EnabledDomains();
  std::vector<Var> orig_norms;
  std::vector<Var> aug_norms;
  for (const Domain d : domains) {
    Var xo, xa;
    {
      trace::TraceSpan span("trainer.features");
      xo = nn::Constant(BuildDomainBatch(originals, d, period));
      xa = nn::Constant(BuildDomainBatch(augmented, d, period));
    }
    orig_norms.push_back(model.EncodeNormalized(d, xo));
    aug_norms.push_back(model.EncodeNormalized(d, xa));
  }
  return model.TotalLoss(orig_norms, aug_norms);
}

}  // namespace

double EpochAverageLoss(double loss_sum, int64_t num_batches) {
  if (num_batches == 0) return std::numeric_limits<double>::quiet_NaN();
  return loss_sum / static_cast<double>(num_batches);
}

uint64_t ValidationSeed(uint64_t run_seed, int64_t epoch) {
  // Golden-ratio mix keeps epoch 0 of seed s distinct from epoch s of
  // seed 0; Rng's SplitMix64 then decorrelates the lanes.
  return run_seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(epoch) + 1;
}

Result<TrainStats> TriadTrainer::Fit(
    const std::vector<std::vector<double>>& windows, int64_t period,
    TriadModel* model, Rng* rng) const {
  if (windows.size() < 2) {
    return Status::InvalidArgument(
        "need at least 2 training windows for contrastive batches");
  }
  const int64_t batch = std::max<int64_t>(2, config_.batch_size);

  // Validation tail (chronologically last windows, as the paper holds out
  // 10% of the training data).
  int64_t val_count = static_cast<int64_t>(
      config_.validation_fraction * static_cast<double>(windows.size()));
  if (static_cast<int64_t>(windows.size()) - val_count < 2) val_count = 0;
  if (val_count == 1) val_count = 0;  // a single window cannot form a batch
  const int64_t train_count = static_cast<int64_t>(windows.size()) - val_count;

  std::vector<std::vector<double>> train_windows(
      windows.begin(), windows.begin() + train_count);
  std::vector<std::vector<double>> val_windows(windows.begin() + train_count,
                                               windows.end());

  TrainStats stats;
  stats.train_windows = train_count;
  stats.val_windows = val_count;

  nn::Adam optimizer(model->Parameters(),
                     static_cast<float>(config_.learning_rate));

  std::vector<int64_t> order(train_windows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);

  // Observability: per-epoch spans and epoch/batch counters
  // (ARCHITECTURE.md §6). Pure telemetry — nothing below reads them back;
  // the losses themselves are returned in TrainStats.
  static metrics::Counter* epochs_counter =
      metrics::Registry::Global().counter("trainer.epochs");
  static metrics::Counter* batches_counter =
      metrics::Registry::Global().counter("trainer.batches");

  for (int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    trace::TraceSpan epoch_span("trainer.epoch");
    rng->Shuffle(&order);
    double epoch_loss = 0.0;
    int64_t num_batches = 0;
    int64_t start = 0;
    while (start < train_count) {
      int64_t count = std::min(batch, train_count - start);
      // A trailing singleton cannot form a contrastive batch; fold it into
      // this batch instead of silently never training it (the old loop
      // dropped one shuffled window per epoch whenever
      // train_count % batch == 1).
      if (train_count - (start + count) == 1) ++count;
      std::vector<std::vector<double>> batch_windows;
      batch_windows.reserve(static_cast<size_t>(count));
      for (int64_t i = 0; i < count; ++i) {
        batch_windows.push_back(
            train_windows[static_cast<size_t>(order[static_cast<size_t>(start + i)])]);
      }
      optimizer.ZeroGrad();
      Var loss = BatchLoss(*model, batch_windows, period, rng);
      {
        trace::TraceSpan span("trainer.backward");
        loss.Backward();
      }
      {
        trace::TraceSpan span("trainer.step");
        optimizer.ClipGradNorm(5.0f);
        optimizer.Step();
      }
      epoch_loss += loss.value()[0];
      ++num_batches;
      start += count;
    }
    stats.epoch_train_loss.push_back(EpochAverageLoss(epoch_loss, num_batches));

    if (val_count >= 2) {
      // Validation must not touch the training RNG stream: augmenting the
      // validation windows from `rng` made the training trajectory depend
      // on validation_fraction. A fresh epoch-seeded stream also means val
      // loss is measured on the *same* augmentations for a given (seed,
      // epoch) regardless of how many train batches ran before it.
      Rng val_rng(ValidationSeed(config_.seed, epoch));
      Var val_loss = BatchLoss(*model, val_windows, period, &val_rng);
      stats.epoch_val_loss.push_back(val_loss.value()[0]);
    }
    epochs_counter->Increment();
    batches_counter->Increment(static_cast<uint64_t>(num_batches));
  }
  return stats;
}

}  // namespace triad::core
