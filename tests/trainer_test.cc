// Regression tests for the TriadTrainer batching/RNG bugfixes:
//
//  1. Validation must not advance the training RNG stream — the training
//     trajectory is bit-identical with validation on vs off.
//  2. A trailing singleton window (train_count % batch == 1) folds into
//     the preceding batch instead of being silently dropped every epoch.
//  3. A zero-batch epoch records NaN, never a fake perfect 0.0 loss.

#include "core/trainer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "core/model.h"

namespace triad::core {
namespace {

constexpr double kPi = 3.14159265358979323846;

std::vector<std::vector<double>> NoisySineWindows(int count, size_t len,
                                                  double period,
                                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> windows;
  windows.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::vector<double> w(len);
    for (size_t t = 0; t < len; ++t) {
      w[t] = std::sin(2.0 * kPi * static_cast<double>(t) / period) +
             rng.Normal(0.0, 0.05);
    }
    windows.push_back(std::move(w));
  }
  return windows;
}

TriadConfig TinyConfig() {
  TriadConfig config;
  config.depth = 1;
  config.hidden_dim = 4;
  config.epochs = 3;
  config.batch_size = 4;
  config.seed = 5;
  return config;
}

TrainStats FitOrDie(const TriadConfig& config,
                    const std::vector<std::vector<double>>& windows) {
  Rng rng(config.seed);
  TriadModel model(config, &rng);
  TriadTrainer trainer(config);
  auto stats = trainer.Fit(windows, /*period=*/12, &model, &rng);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return *stats;
}

// ---------- bugfix 1: validation must not perturb training ----------

TEST(TrainerRegressionTest, TrainingTrajectoryIsBitIdenticalWithValidationOnVsOff) {
  const auto all = NoisySineWindows(20, 48, 12.0, 31);

  // With a 20% validation tail the trainer holds out the last 4 windows.
  TriadConfig with_val = TinyConfig();
  with_val.validation_fraction = 0.2;
  const TrainStats a = FitOrDie(with_val, all);
  ASSERT_EQ(a.train_windows, 16);
  ASSERT_EQ(a.val_windows, 4);
  ASSERT_EQ(a.epoch_val_loss.size(), a.epoch_train_loss.size());

  // Same 16 training windows, no validation at all: every epoch's train
  // loss must match bit for bit. (Before the fix, validating re-augmented
  // the held-out windows from the *training* RNG, so epochs 1+ diverged.)
  TriadConfig no_val = TinyConfig();
  no_val.validation_fraction = 0.0;
  const std::vector<std::vector<double>> train_only(all.begin(),
                                                    all.begin() + 16);
  const TrainStats b = FitOrDie(no_val, train_only);
  ASSERT_EQ(b.val_windows, 0);
  ASSERT_TRUE(b.epoch_val_loss.empty());

  ASSERT_EQ(a.epoch_train_loss.size(), b.epoch_train_loss.size());
  for (size_t e = 0; e < a.epoch_train_loss.size(); ++e) {
    EXPECT_EQ(a.epoch_train_loss[e], b.epoch_train_loss[e]) << "epoch " << e;
  }
}

TEST(TrainerRegressionTest, ValidationSeedSeparatesEpochsAndRuns) {
  EXPECT_NE(ValidationSeed(1, 0), ValidationSeed(1, 1));
  EXPECT_NE(ValidationSeed(1, 0), ValidationSeed(2, 0));
  // Epoch e of seed s must not collide with epoch 0 of seed s+e (a plain
  // `seed + epoch` mix would).
  EXPECT_NE(ValidationSeed(1, 1), ValidationSeed(2, 0));
  EXPECT_EQ(ValidationSeed(7, 3), ValidationSeed(7, 3));
}

// ---------- bugfix 2: trailing singleton folds into the last batch ----------

TEST(TrainerRegressionTest, TrailingSingletonWindowIsTrainedNotDropped) {
  // 5 windows with batch_size 4: the shuffled remainder is one window, so
  // the epoch must run ONE batch of all 5 windows. That is exactly what
  // batch_size = 5 produces, so the two runs consume identical RNG streams
  // and must train bit-identically. (Before the fix, batch_size = 4
  // silently dropped the 5th shuffled window every epoch.)
  const auto windows = NoisySineWindows(5, 48, 12.0, 32);

  TriadConfig fold = TinyConfig();
  fold.validation_fraction = 0.0;
  fold.batch_size = 4;
  const TrainStats a = FitOrDie(fold, windows);

  TriadConfig exact = TinyConfig();
  exact.validation_fraction = 0.0;
  exact.batch_size = 5;
  const TrainStats b = FitOrDie(exact, windows);

  ASSERT_EQ(a.epoch_train_loss.size(), b.epoch_train_loss.size());
  for (size_t e = 0; e < a.epoch_train_loss.size(); ++e) {
    EXPECT_EQ(a.epoch_train_loss[e], b.epoch_train_loss[e]) << "epoch " << e;
  }
}

TEST(TrainerRegressionTest, NonRemainderBatchingIsUnchanged) {
  // 8 windows, batch 4: two exact batches — the fold must not kick in and
  // perturb the standard path. Pin by re-running with the same seed.
  const auto windows = NoisySineWindows(8, 48, 12.0, 33);
  TriadConfig config = TinyConfig();
  config.validation_fraction = 0.0;
  const TrainStats a = FitOrDie(config, windows);
  const TrainStats b = FitOrDie(config, windows);
  ASSERT_EQ(a.epoch_train_loss.size(), b.epoch_train_loss.size());
  for (size_t e = 0; e < a.epoch_train_loss.size(); ++e) {
    EXPECT_EQ(a.epoch_train_loss[e], b.epoch_train_loss[e]);
  }
}

// ---------- bugfix 3: zero-batch epochs record NaN ----------

TEST(TrainerRegressionTest, ZeroBatchEpochAverageIsNaNNotZero) {
  EXPECT_TRUE(std::isnan(EpochAverageLoss(0.0, 0)));
  EXPECT_EQ(EpochAverageLoss(6.0, 3), 2.0);
  EXPECT_EQ(EpochAverageLoss(0.0, 2), 0.0);  // a real zero loss stays 0
}

}  // namespace
}  // namespace triad::core
