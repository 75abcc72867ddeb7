#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/stats.h"
#include "core/augmentation.h"
#include "core/detector.h"
#include "core/features.h"
#include "core/model.h"
#include "core/trainer.h"
#include "discord/mass.h"
#include "nn/grad_check.h"
#include "data/ucr_generator.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include "signal/windows.h"

namespace triad::core {
namespace {

constexpr double kPi = 3.14159265358979323846;

std::vector<double> Sine(size_t n, double period) {
  std::vector<double> x(n);
  for (size_t t = 0; t < n; ++t) {
    x[t] = std::sin(2.0 * kPi * static_cast<double>(t) / period);
  }
  return x;
}

TriadConfig TinyConfig() {
  TriadConfig config;
  config.depth = 2;
  config.hidden_dim = 8;
  config.epochs = 3;
  config.batch_size = 6;
  config.seed = 5;
  config.merlin_length_step = 4;
  return config;
}

// ---------- augmentation ----------

TEST(AugmentationTest, JitterOnlyTouchesSegment) {
  std::vector<double> w = Sine(100, 20.0);
  const std::vector<double> original = w;
  Rng rng(1);
  JitterSegment(&w, 30, 50, 0.5, &rng);
  for (size_t i = 0; i < 30; ++i) EXPECT_EQ(w[i], original[i]);
  for (size_t i = 50; i < 100; ++i) EXPECT_EQ(w[i], original[i]);
  double changed = 0.0;
  for (size_t i = 30; i < 50; ++i) changed += std::abs(w[i] - original[i]);
  EXPECT_GT(changed, 0.5);
}

TEST(AugmentationTest, WarpSmoothsSegment) {
  // Noisy sine: warping should reduce local roughness in the segment.
  Rng rng(2);
  std::vector<double> w = Sine(120, 30.0);
  for (auto& v : w) v += rng.Normal(0.0, 0.3);
  const std::vector<double> original = w;
  WarpSegment(&w, 40, 80, 0.1);
  auto roughness = [](const std::vector<double>& v, size_t lo, size_t hi) {
    double acc = 0.0;
    for (size_t i = lo + 1; i < hi; ++i) acc += std::abs(v[i] - v[i - 1]);
    return acc;
  };
  EXPECT_LT(roughness(w, 40, 80), 0.5 * roughness(original, 40, 80));
  for (size_t i = 0; i < 40; ++i) EXPECT_EQ(w[i], original[i]);
}

TEST(AugmentationTest, PolicyIsDeterministicPerSeed) {
  std::vector<double> a = Sine(80, 16.0);
  std::vector<double> b = a;
  Rng r1(7), r2(7);
  const AugmentationInfo ia = AugmentWindow(&a, &r1);
  const AugmentationInfo ib = AugmentWindow(&b, &r2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ia.kind, ib.kind);
  EXPECT_EQ(ia.begin, ib.begin);
}

TEST(AugmentationTest, SegmentBoundsValid) {
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> w = Sine(64, 16.0);
    const AugmentationInfo info = AugmentWindow(&w, &rng);
    EXPECT_GE(info.begin, 0);
    EXPECT_LT(info.begin, info.end);
    EXPECT_LE(info.end, 64);
    EXPECT_TRUE(info.kind == "jitter" || info.kind == "warp");
  }
}

// ---------- features ----------

TEST(FeaturesTest, ChannelCounts) {
  EXPECT_EQ(DomainChannels(Domain::kTemporal), 1);
  EXPECT_EQ(DomainChannels(Domain::kFrequency), 3);
  EXPECT_EQ(DomainChannels(Domain::kResidual), 1);
}

TEST(FeaturesTest, ShapesAndNormalization) {
  const std::vector<double> w = Sine(64, 16.0);
  for (Domain d : {Domain::kTemporal, Domain::kFrequency, Domain::kResidual}) {
    const std::vector<float> f = ExtractDomainFeatures(w, d, 16);
    EXPECT_EQ(static_cast<int64_t>(f.size()), DomainChannels(d) * 64);
    // Every channel is z-normalized.
    for (int64_t c = 0; c < DomainChannels(d); ++c) {
      std::vector<double> channel(f.begin() + c * 64, f.begin() + (c + 1) * 64);
      EXPECT_NEAR(Mean(channel), 0.0, 1e-4) << DomainToString(d);
      EXPECT_NEAR(StdDev(channel), 1.0, 1e-3) << DomainToString(d);
    }
  }
}

TEST(FeaturesTest, BatchLayout) {
  std::vector<std::vector<double>> windows = {Sine(32, 8.0), Sine(32, 16.0)};
  const nn::Tensor batch = BuildDomainBatch(windows, Domain::kFrequency, 8);
  EXPECT_EQ(batch.shape(), (std::vector<int64_t>{2, 3, 32}));
  // First row of the batch equals single-window extraction.
  const std::vector<float> single =
      ExtractDomainFeatures(windows[0], Domain::kFrequency, 8);
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_FLOAT_EQ(batch[static_cast<int64_t>(i)], single[i]);
  }
}

TEST(FeaturesTest, FrequencyDomainSeparatesFrequencyShift) {
  // Frequency features of a frequency-doubled window differ sharply from a
  // normal one; temporal z-norm profiles may overlap.
  const std::vector<float> normal =
      ExtractDomainFeatures(Sine(64, 16.0), Domain::kFrequency, 16);
  const std::vector<float> shifted =
      ExtractDomainFeatures(Sine(64, 8.0), Domain::kFrequency, 16);
  double diff = 0.0;
  for (size_t i = 0; i < normal.size(); ++i) {
    diff += std::abs(normal[i] - shifted[i]);
  }
  EXPECT_GT(diff / static_cast<double>(normal.size()), 0.2);
}

// ---------- model ----------

TEST(ModelTest, EncodeShapes) {
  TriadConfig config = TinyConfig();
  Rng rng(3);
  TriadModel model(config, &rng);
  std::vector<std::vector<double>> windows = {Sine(48, 12.0), Sine(48, 12.0)};
  for (Domain d : model.EnabledDomains()) {
    nn::Var x = nn::Constant(BuildDomainBatch(windows, d, 12));
    nn::Var r = model.Encode(d, x);
    EXPECT_EQ(r.shape(), (std::vector<int64_t>{2, 48}));
    nn::Var rn = model.EncodeNormalized(d, x);
    float ss = 0.0f;
    for (int64_t i = 0; i < 48; ++i) ss += rn.value()[i] * rn.value()[i];
    EXPECT_NEAR(ss, 1.0f, 1e-3);
  }
}

// The streaming memo (core::DetectMemo) re-encodes only the windows that
// newly slid into the buffer and serves the rest from cache — sound only if
// a window's encoding never depends on its batch-mates. Lock that
// assumption down: encoding any sub-batch reproduces the full batch's rows
// bit for bit.
TEST(ModelTest, EncodeRowsAreBatchIndependent) {
  TriadConfig config = TinyConfig();
  Rng rng(3);
  TriadModel model(config, &rng);
  std::vector<std::vector<double>> windows;
  for (int k = 0; k < 5; ++k) {
    windows.push_back(Sine(48, 8.0 + static_cast<double>(k)));
  }
  for (Domain d : model.EnabledDomains()) {
    nn::Var full =
        model.EncodeNormalized(d, nn::Constant(BuildDomainBatch(windows, d, 12)));
    const int64_t L = full.shape()[1];
    // Every singleton, plus an interior sub-batch.
    for (size_t w = 0; w < windows.size(); ++w) {
      const std::vector<std::vector<double>> one = {windows[w]};
      nn::Var r =
          model.EncodeNormalized(d, nn::Constant(BuildDomainBatch(one, d, 12)));
      for (int64_t i = 0; i < L; ++i) {
        ASSERT_EQ(r.value()[i],
                  full.value()[static_cast<int64_t>(w) * L + i])
            << "domain batch row " << w << " drifted at " << i;
      }
    }
    const std::vector<std::vector<double>> mid = {windows[1], windows[2],
                                                  windows[3]};
    nn::Var rm =
        model.EncodeNormalized(d, nn::Constant(BuildDomainBatch(mid, d, 12)));
    for (int64_t b = 0; b < 3; ++b) {
      for (int64_t i = 0; i < L; ++i) {
        ASSERT_EQ(rm.value()[b * L + i], full.value()[(b + 1) * L + i]);
      }
    }
  }
}

TEST(ModelTest, AblationDisablesDomains) {
  TriadConfig config = TinyConfig();
  config.use_residual = false;
  Rng rng(3);
  TriadModel model(config, &rng);
  EXPECT_EQ(model.EnabledDomains().size(), 2u);
  EXPECT_EQ(config.EnabledDomains(), 2);
}

// Load checks a checkpoint's tensors against ParameterShapes before it
// builds a model, so the listing must be exactly what a built model holds,
// including the projections that a width of 1 or 3 (a domain's own channel
// count) leaves out.
TEST(ModelTest, ParameterShapesMatchABuiltModel) {
  std::vector<TriadConfig> configs;
  for (int64_t hidden : {1, 3, 8}) {
    for (int64_t depth : {1, 3}) {
      TriadConfig config = TinyConfig();
      config.hidden_dim = hidden;
      config.depth = depth;
      config.kernel_size = depth == 1 ? 1 : 5;
      configs.push_back(config);
    }
  }
  TriadConfig frequency_only = TinyConfig();
  frequency_only.use_temporal = false;
  frequency_only.use_residual = false;
  configs.push_back(frequency_only);
  TriadConfig no_residual = TinyConfig();
  no_residual.use_residual = false;
  configs.push_back(no_residual);

  for (const TriadConfig& config : configs) {
    SCOPED_TRACE("hidden " + std::to_string(config.hidden_dim) + " depth " +
                 std::to_string(config.depth) + " domains " +
                 std::to_string(config.EnabledDomains()));
    Rng rng(3);
    const TriadModel model(config, &rng);
    const std::vector<nn::Var> params = model.Parameters();
    const std::vector<std::vector<int64_t>> shapes =
        TriadModel::ParameterShapes(config);
    EXPECT_EQ(TriadModel::ParameterTensorCount(config),
              static_cast<int64_t>(params.size()));
    ASSERT_EQ(shapes.size(), params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(shapes[i], params[i].value().shape()) << "tensor " << i;
    }
  }
}

TEST(ModelTest, ParameterTensorCountSaturatesOnAHostileDepth) {
  TriadConfig config = TinyConfig();
  config.depth = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(TriadModel::ParameterTensorCount(config),
            std::numeric_limits<int64_t>::max());
  config.depth = int64_t{1} << 40;
  EXPECT_GT(TriadModel::ParameterTensorCount(config), config.depth);
}

TEST(ModelDeathTest, EncodingDisabledDomainAborts) {
  TriadConfig config = TinyConfig();
  config.use_residual = false;
  Rng rng(3);
  TriadModel model(config, &rng);
  std::vector<std::vector<double>> windows = {Sine(32, 8.0)};
  nn::Var x = nn::Constant(BuildDomainBatch(windows, Domain::kResidual, 8));
  EXPECT_DEATH(model.Encode(Domain::kResidual, x), "disabled");
}

TEST(ModelTest, LossesAreFiniteAndPositive) {
  TriadConfig config = TinyConfig();
  Rng rng(4);
  TriadModel model(config, &rng);
  std::vector<std::vector<double>> windows;
  for (int i = 0; i < 4; ++i) windows.push_back(Sine(48, 12.0));
  std::vector<std::vector<double>> augmented = windows;
  Rng aug_rng(5);
  for (auto& w : augmented) AugmentWindow(&w, &aug_rng);

  std::vector<nn::Var> orig, aug;
  for (Domain d : model.EnabledDomains()) {
    orig.push_back(model.EncodeNormalized(
        d, nn::Constant(BuildDomainBatch(windows, d, 12))));
    aug.push_back(model.EncodeNormalized(
        d, nn::Constant(BuildDomainBatch(augmented, d, 12))));
  }
  const float intra = model.IntraDomainLoss(orig[0], aug[0]).value()[0];
  const float inter = model.InterDomainLoss(orig).value()[0];
  const float total = model.TotalLoss(orig, aug).value()[0];
  EXPECT_TRUE(std::isfinite(intra));
  EXPECT_TRUE(std::isfinite(inter));
  EXPECT_TRUE(std::isfinite(total));
  EXPECT_GT(intra, 0.0f);
  EXPECT_GT(inter, 0.0f);
}

TEST(ModelTest, TotalLossHonorsAlpha) {
  TriadConfig config = TinyConfig();
  Rng rng(6);
  TriadModel model(config, &rng);
  std::vector<std::vector<double>> windows = {Sine(48, 12.0), Sine(48, 12.0),
                                              Sine(48, 12.0)};
  std::vector<std::vector<double>> augmented = windows;
  Rng aug_rng(7);
  for (auto& w : augmented) AugmentWindow(&w, &aug_rng);
  std::vector<nn::Var> orig, aug;
  for (Domain d : model.EnabledDomains()) {
    orig.push_back(model.EncodeNormalized(
        d, nn::Constant(BuildDomainBatch(windows, d, 12))));
    aug.push_back(model.EncodeNormalized(
        d, nn::Constant(BuildDomainBatch(augmented, d, 12))));
  }
  float intra_sum = 0.0f;
  for (size_t i = 0; i < orig.size(); ++i) {
    intra_sum += model.IntraDomainLoss(orig[i], aug[i]).value()[0];
  }
  const float intra = intra_sum / static_cast<float>(orig.size());
  const float inter = model.InterDomainLoss(orig).value()[0];
  const float total = model.TotalLoss(orig, aug).value()[0];
  const float alpha = static_cast<float>(config.alpha);
  EXPECT_NEAR(total, alpha * inter + (1 - alpha) * intra, 1e-4);
}

TEST(ModelTest, TotalLossGradientMatchesFiniteDifferences) {
  // End-to-end analytic-vs-numeric gradient check of the full TriAD loss
  // (both contrastive terms, all domains) through a tiny encoder.
  TriadConfig config;
  config.depth = 1;
  config.hidden_dim = 4;
  Rng rng(12);
  TriadModel model(config, &rng);

  std::vector<std::vector<double>> windows = {Sine(16, 8.0), Sine(16, 4.0),
                                              Sine(16, 5.3)};
  std::vector<std::vector<double>> augmented = windows;
  Rng aug_rng(13);
  for (auto& w : augmented) AugmentWindow(&w, &aug_rng);

  std::vector<nn::Tensor> orig_batches, aug_batches;
  for (Domain d : model.EnabledDomains()) {
    orig_batches.push_back(BuildDomainBatch(windows, d, 8));
    aug_batches.push_back(BuildDomainBatch(augmented, d, 8));
  }
  auto loss_fn = [&](const std::vector<nn::Var>&) {
    std::vector<nn::Var> orig, aug;
    for (size_t d = 0; d < orig_batches.size(); ++d) {
      const Domain domain = model.EnabledDomains()[d];
      orig.push_back(
          model.EncodeNormalized(domain, nn::Constant(orig_batches[d])));
      aug.push_back(
          model.EncodeNormalized(domain, nn::Constant(aug_batches[d])));
    }
    return model.TotalLoss(orig, aug);
  };
  // Check a subset of parameters (the full set is slow at O(P) evals):
  // first conv weights + the shared head.
  std::vector<nn::Var> all = model.Parameters();
  std::vector<nn::Var> checked = {all.front(), all.back()};
  EXPECT_LT(nn::MaxGradError(loss_fn, checked, 1e-3, 1e-3), 6e-2);
}

// ---------- trainer ----------

TEST(TrainerTest, LossDecreasesOnCleanData) {
  TriadConfig config = TinyConfig();
  config.epochs = 6;
  Rng rng(8);
  TriadModel model(config, &rng);
  Rng data_rng(9);
  std::vector<std::vector<double>> windows;
  for (int i = 0; i < 12; ++i) {
    std::vector<double> w = Sine(48, 12.0);
    for (auto& v : w) v += data_rng.Normal(0.0, 0.05);
    windows.push_back(std::move(w));
  }
  TriadTrainer trainer(config);
  Rng train_rng(10);
  auto stats = trainer.Fit(windows, 12, &model, &train_rng);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->epoch_train_loss.size(), 6u);
  EXPECT_LT(stats->epoch_train_loss.back(),
            stats->epoch_train_loss.front());
  EXPECT_EQ(stats->train_windows + stats->val_windows, 12);
}

TEST(TrainerTest, RejectsTooFewWindows) {
  TriadConfig config = TinyConfig();
  Rng rng(11);
  TriadModel model(config, &rng);
  TriadTrainer trainer(config);
  Rng train_rng(12);
  std::vector<std::vector<double>> one = {Sine(48, 12.0)};
  EXPECT_FALSE(trainer.Fit(one, 12, &model, &train_rng).ok());
}

// ---------- detector end-to-end ----------

TEST(DetectorTest, WindowOverlapHelper) {
  EXPECT_TRUE(WindowOverlapsRange(10, 5, 12, 20));
  EXPECT_TRUE(WindowOverlapsRange(10, 5, 0, 11));
  EXPECT_FALSE(WindowOverlapsRange(10, 5, 15, 20));
  EXPECT_FALSE(WindowOverlapsRange(10, 5, 0, 10));
}

TEST(DetectorTest, FitThenDetectProducesConsistentArtifacts) {
  data::UcrGeneratorOptions gen;
  gen.count = 1;
  gen.seed = 21;
  gen.min_period = 32;
  gen.max_period = 32;
  gen.min_train_periods = 14;
  gen.max_train_periods = 14;
  gen.min_test_periods = 10;
  gen.max_test_periods = 10;
  const data::UcrDataset ds = data::MakeUcrArchive(gen)[0];

  TriadDetector detector(TinyConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());
  EXPECT_NEAR(static_cast<double>(detector.period()), 32.0, 10.0);
  EXPECT_GT(detector.window_length(), 0);

  auto result = detector.Detect(ds.test);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const DetectionResult& r = *result;
  EXPECT_EQ(r.predictions.size(), ds.test.size());
  EXPECT_EQ(r.domain_similarity.size(), 3u);
  EXPECT_EQ(r.candidate_windows.size(), 3u);
  ASSERT_GE(r.selected_window, 0);
  EXPECT_LT(r.selected_window,
            static_cast<int64_t>(r.window_starts.size()));
  // The selected window must be one of the candidates.
  bool found = false;
  for (int64_t c : r.candidate_windows) found = found || (c == r.selected_window);
  EXPECT_TRUE(found);
  // Search region wraps the window with padding.
  const int64_t w_start = r.window_starts[static_cast<size_t>(r.selected_window)];
  EXPECT_LE(r.search_begin, w_start);
  EXPECT_GE(r.search_end, w_start + r.window_length);
  // Votes only outside nonzero where window/discords lie; predictions binary.
  for (size_t i = 0; i < r.predictions.size(); ++i) {
    EXPECT_TRUE(r.predictions[i] == 0 || r.predictions[i] == 1);
    if (r.predictions[i] == 1 && !r.exception_applied) {
      EXPECT_GT(r.votes[i], r.vote_threshold);
    }
  }
  // Some predictions exist.
  int64_t flagged = 0;
  for (int v : r.predictions) flagged += v;
  EXPECT_GT(flagged, 0);
}

TEST(DetectorTest, DetectBeforeFitFails) {
  TriadDetector detector(TinyConfig());
  EXPECT_FALSE(detector.Detect(Sine(100, 20.0)).ok());
  EXPECT_FALSE(detector.DetectEvents(Sine(100, 20.0), 2).ok());
  EXPECT_FALSE(detector.Save("/tmp/triad_unfitted.ckpt").ok());
}

data::UcrDataset SmallDataset(uint64_t seed) {
  data::UcrGeneratorOptions gen;
  gen.count = 1;
  gen.seed = seed;
  gen.min_period = 32;
  gen.max_period = 32;
  gen.min_train_periods = 14;
  gen.max_train_periods = 14;
  gen.min_test_periods = 10;
  gen.max_test_periods = 10;
  return data::MakeUcrArchive(gen)[0];
}

TEST(DetectorTest, SaveLoadReproducesDetection) {
  const data::UcrDataset ds = SmallDataset(31);
  TriadDetector detector(TinyConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());
  auto original = detector.Detect(ds.test);
  ASSERT_TRUE(original.ok());

  const std::string path = "/tmp/triad_detector_test.ckpt";
  ASSERT_TRUE(detector.Save(path).ok());
  auto loaded = TriadDetector::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->period(), detector.period());
  EXPECT_EQ(loaded->window_length(), detector.window_length());
  EXPECT_EQ(loaded->stride(), detector.stride());

  auto replay = loaded->Detect(ds.test);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->predictions, original->predictions);
  EXPECT_EQ(replay->selected_window, original->selected_window);
  EXPECT_EQ(replay->candidate_windows, original->candidate_windows);
  std::remove(path.c_str());
}

TEST(DetectorTest, LoadRejectsGarbage) {
  const std::string path = "/tmp/triad_garbage.ckpt";
  std::ofstream(path) << "this is not a checkpoint";
  EXPECT_FALSE(TriadDetector::Load(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(TriadDetector::Load("/tmp/missing_triad.ckpt").ok());
}

TEST(DetectorTest, DetectEventsSingleMatchesProtocol) {
  const data::UcrDataset ds = SmallDataset(33);
  TriadDetector detector(TinyConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());
  auto multi = detector.DetectEvents(ds.test, 1);
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  EXPECT_EQ(multi->predictions.size(), ds.test.size());
  ASSERT_GE(multi->selected_window, 0);
  // One window nominated -> search region is set around it.
  EXPECT_LT(multi->search_begin, multi->search_end);
  // The similarity scan is timed as its own stage, as in Detect.
  ASSERT_GT(multi->window_starts.size(), 1u);
  EXPECT_GT(multi->tri_window_seconds, 0.0);
  EXPECT_GT(multi->encode_seconds, 0.0);
  EXPECT_GT(multi->selection_seconds, 0.0);
}

// Every field of two detections except the stage timings, exactly.
void ExpectSameDetection(const DetectionResult& a, const DetectionResult& b) {
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_EQ(a.window_length, b.window_length);
  EXPECT_EQ(a.stride, b.stride);
  EXPECT_EQ(a.window_starts, b.window_starts);
  EXPECT_EQ(a.domain_similarity, b.domain_similarity);
  EXPECT_EQ(a.candidate_windows, b.candidate_windows);
  EXPECT_EQ(a.selected_window, b.selected_window);
  EXPECT_EQ(a.search_begin, b.search_begin);
  EXPECT_EQ(a.search_end, b.search_end);
  ASSERT_EQ(a.discords.size(), b.discords.size());
  for (size_t i = 0; i < a.discords.size(); ++i) {
    EXPECT_EQ(a.discords[i].position, b.discords[i].position);
    EXPECT_EQ(a.discords[i].length, b.discords[i].length);
    EXPECT_EQ(a.discords[i].distance, b.discords[i].distance);
  }
  EXPECT_EQ(a.votes, b.votes);
  EXPECT_EQ(a.vote_threshold, b.vote_threshold);
  EXPECT_EQ(a.exception_applied, b.exception_applied);
  EXPECT_EQ(a.sanitize_report.Summary(), b.sanitize_report.Summary());
  EXPECT_EQ(a.period_fallback, b.period_fallback);
  EXPECT_EQ(a.residual_domain_disabled, b.residual_domain_disabled);
}

// Detect nominates ArgMin(sim) per domain, the lowest index among equal
// minima; DetectEvents(x, 1) must nominate the same windows and so return
// the same result, field by field.
void ExpectSingleEventMatchesDetect(const TriadDetector& detector,
                                    const std::vector<double>& test) {
  auto single = detector.Detect(test);
  auto events = detector.DetectEvents(test, 1);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ExpectSameDetection(*events, *single);
}

// True when two windows share some domain's lowest similarity.
bool HasTiedMinimum(const DetectionResult& r) {
  for (const std::vector<double>& sim : r.domain_similarity) {
    const double lowest = *std::min_element(sim.begin(), sim.end());
    if (std::count(sim.begin(), sim.end(), lowest) > 1) return true;
  }
  return false;
}

TEST(DetectorTest, DetectEventsSingleEqualsDetect) {
  {
    SCOPED_TRACE("SmallDataset");
    const data::UcrDataset ds = SmallDataset(33);
    TriadDetector detector(TinyConfig());
    ASSERT_TRUE(detector.Fit(ds.train).ok());
    ExpectSingleEventMatchesDetect(detector, ds.test);
  }
  {
    // A noise-free sine repeats its windows exactly, so equal similarities
    // decide the nomination.
    SCOPED_TRACE("period-20 sine");
    TriadConfig config = TinyConfig();
    config.epochs = 2;
    TriadDetector detector(config);
    ASSERT_TRUE(detector.Fit(Sine(800, 20.0)).ok());
    const std::vector<double> test = Sine(600, 20.0);
    auto single = detector.Detect(test);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    ASSERT_TRUE(HasTiedMinimum(*single));
    ExpectSingleEventMatchesDetect(detector, test);
  }
}

// Selection ranks nominees by deviation, highest first and lowest window on
// ties. At max_events = M every window is a nominee, and same-phase windows
// of a noise-free sine are identical, so the most deviant phase is shared
// by several windows: the first kept window must be the lowest of them.
TEST(DetectorTest, SelectionBreaksDeviationTiesTowardTheLowestWindow) {
  TriadConfig config = TinyConfig();
  config.epochs = 2;
  TriadDetector detector(config);
  const std::vector<double> train = Sine(800, 20.0);
  ASSERT_TRUE(detector.Fit(train).ok());
  const std::vector<double> test = Sine(600, 20.0);
  const int64_t L = detector.window_length();
  const std::vector<int64_t> starts = signal::SlidingWindowStarts(
      static_cast<int64_t>(test.size()), L, detector.stride());
  const int64_t M = static_cast<int64_t>(starts.size());
  auto result = detector.DetectEvents(test, M);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const discord::NearestWindowIndex index(train, L);
  std::vector<double> deviation;
  for (int64_t s : starts) {
    deviation.push_back(
        index.NearestDistance(signal::ExtractWindow(test, s, L)));
  }
  const double most = *std::max_element(deviation.begin(), deviation.end());
  ASSERT_GT(std::count(deviation.begin(), deviation.end(), most), 1);
  EXPECT_EQ(result->selected_window,
            std::find(deviation.begin(), deviation.end(), most) -
                deviation.begin());
}

// The memo is a pure cache (DetectMemo): a 4-window buffer slid one stride
// at a time through a stream, scored with one memo, must equal a plain
// Detect of the same buffer at every step, on both SIMD tiers and at 1 and
// 4 pool lanes. One step scores a copy of its buffer with a NaN the
// sanitizer repairs; that pass must bypass the memo and leave it unpolluted
// for the clean steps after it. Each of the three caches must be hit, so
// none goes unexercised.
TEST(DetectorTest, MemoizedDetectEqualsDetect) {
  data::UcrGeneratorOptions gen;
  gen.count = 1;
  gen.seed = 43;
  gen.min_period = 32;
  gen.max_period = 32;
  gen.min_train_periods = 14;
  gen.max_train_periods = 14;
  gen.min_test_periods = 20;
  gen.max_test_periods = 20;
  const data::UcrDataset ds = data::MakeUcrArchive(gen)[0];
  TriadDetector detector(TinyConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());
  const int64_t buffer = 4 * detector.window_length();
  const int64_t stride = detector.stride();
  const int64_t steps =
      (static_cast<int64_t>(ds.test.size()) - buffer) / stride + 1;
  ASSERT_GE(steps, 8);
  const int64_t dirty_step = steps / 2;

  metrics::ScopedEnable enable(true);
  auto& registry = metrics::Registry::Global();
  metrics::Counter* bypass = registry.counter("streaming.memo_bypass");
  const std::vector<metrics::Counter*> hits = {
      registry.counter("streaming.encode_hits"),
      registry.counter("streaming.deviation_hits"),
      registry.counter("streaming.merlin_hits")};

  for (simd::Level level :
       {simd::Level::kScalar, simd::HighestSupportedLevel()}) {
    for (int64_t lanes : {1, 4}) {
      SCOPED_TRACE(std::string("tier=") + simd::LevelName(level) +
                   " lanes=" + std::to_string(lanes));
      simd::ScopedForceLevel force(level);
      ThreadPool pool(lanes);
      ScopedDefaultPool scoped(&pool);
      std::vector<uint64_t> hits_before;
      for (metrics::Counter* c : hits) hits_before.push_back(c->value());
      DetectMemo memo;
      for (int64_t step = 0; step < steps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const int64_t start = step * stride;
        std::vector<double> buf(ds.test.begin() + start,
                                ds.test.begin() + start + buffer);
        if (step == dirty_step) {
          buf[static_cast<size_t>(buffer / 2)] =
              std::numeric_limits<double>::quiet_NaN();
        }
        const uint64_t bypass_before = bypass->value();
        auto memoized = detector.Detect(buf, &memo, start);
        auto plain = detector.Detect(buf);
        ASSERT_TRUE(memoized.ok()) << memoized.status().ToString();
        ASSERT_TRUE(plain.ok()) << plain.status().ToString();
        ExpectSameDetection(*memoized, *plain);
        const bool repaired = step == dirty_step;
        EXPECT_EQ(plain->sanitize_report.clean(), !repaired);
        EXPECT_EQ(bypass->value() - bypass_before, repaired ? 1u : 0u);
      }
      for (size_t c = 0; c < hits.size(); ++c) {
        EXPECT_GT(hits[c]->value(), hits_before[c]) << "cache " << c;
      }
    }
  }
}

TEST(DetectorTest, DetectEventsFindsMultipleInjectedEvents) {
  // Two well-separated anomalies in one test series.
  data::UcrDataset ds = SmallDataset(35);
  const int64_t n = static_cast<int64_t>(ds.test.size());
  int64_t second_begin = (ds.anomaly_begin < n / 2) ? ds.anomaly_begin + n / 2
                                                    : ds.anomaly_begin - n / 2;
  second_begin = std::clamp<int64_t>(second_begin, 16, n - 48);
  Rng rng(99);
  for (int64_t i = second_begin; i < std::min(n, second_begin + 24); ++i) {
    ds.test[static_cast<size_t>(i)] += rng.Normal(0.0, 1.5);
  }

  TriadDetector detector(TinyConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());
  auto result = detector.DetectEvents(ds.test, 2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Both events should attract votes.
  auto votes_near = [&](int64_t center) {
    double total = 0.0;
    for (int64_t i = std::max<int64_t>(0, center - 40);
         i < std::min(n, center + 40); ++i) {
      total += result->votes[static_cast<size_t>(i)];
    }
    return total;
  };
  EXPECT_GT(votes_near((ds.anomaly_begin + ds.anomaly_end) / 2), 0.0);
  EXPECT_GT(votes_near(second_begin + 6), 0.0);
}

TEST(DetectorTest, DetectEventsRejectsBadCount) {
  const data::UcrDataset ds = SmallDataset(37);
  TriadDetector detector(TinyConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());
  EXPECT_FALSE(detector.DetectEvents(ds.test, 0).ok());
}

TEST(DetectorTest, WelchPeriodEstimatorOption) {
  const data::UcrDataset ds = SmallDataset(41);
  TriadConfig config = TinyConfig();
  config.use_welch_period_estimator = true;
  TriadDetector detector(config);
  ASSERT_TRUE(detector.Fit(ds.train).ok());
  // Same true period (32) recovered by the Welch path.
  EXPECT_NEAR(static_cast<double>(detector.period()), 32.0, 10.0);
}

TEST(DetectorTest, CheckpointPreservesVotingOptions) {
  const data::UcrDataset ds = SmallDataset(43);
  TriadConfig config = TinyConfig();
  config.voting.weighting = VoteWeighting::kDistanceWeighted;
  config.voting.threshold_rule = ThresholdRule::kQuantile;
  config.voting.threshold_quantile = 0.8;
  TriadDetector detector(config);
  ASSERT_TRUE(detector.Fit(ds.train).ok());
  const std::string path = "/tmp/triad_voting_ckpt_test.bin";
  ASSERT_TRUE(detector.Save(path).ok());
  auto loaded = TriadDetector::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->config().voting.weighting,
            VoteWeighting::kDistanceWeighted);
  EXPECT_EQ(loaded->config().voting.threshold_rule, ThresholdRule::kQuantile);
  EXPECT_DOUBLE_EQ(loaded->config().voting.threshold_quantile, 0.8);
  auto a = detector.Detect(ds.test);
  auto b = loaded->Detect(ds.test);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->predictions, b->predictions);
  std::remove(path.c_str());
}

TEST(DetectorTest, VotingOptionsChangeDecisions) {
  const data::UcrDataset ds = SmallDataset(39);
  TriadConfig quantile_config = TinyConfig();
  quantile_config.voting.threshold_rule = ThresholdRule::kQuantile;
  quantile_config.voting.threshold_quantile = 0.95;

  TriadDetector base(TinyConfig());
  TriadDetector strict(quantile_config);
  ASSERT_TRUE(base.Fit(ds.train).ok());
  ASSERT_TRUE(strict.Fit(ds.train).ok());
  auto base_result = base.Detect(ds.test);
  auto strict_result = strict.Detect(ds.test);
  ASSERT_TRUE(base_result.ok() && strict_result.ok());
  int64_t base_flagged = 0, strict_flagged = 0;
  for (int v : base_result->predictions) base_flagged += v;
  for (int v : strict_result->predictions) strict_flagged += v;
  // The 95th-percentile threshold can only flag fewer or equal points
  // (unless the exception rule rewrote the strict predictions).
  if (!strict_result->exception_applied) {
    EXPECT_LE(strict_flagged, base_flagged);
  }
}

TEST(DetectorTest, FitRejectsShortSeries) {
  TriadDetector detector(TinyConfig());
  EXPECT_FALSE(detector.Fit(Sine(30, 10.0)).ok());
}

TEST(DetectorTest, RepairsMildlyCorruptedInput) {
  // A single NaN sample is inside the sanitizer's repair envelope: Fit
  // succeeds, and the repair shows up in the training report.
  std::vector<double> train = Sine(500, 25.0);
  train[100] = std::numeric_limits<double>::quiet_NaN();
  TriadDetector detector(TinyConfig());
  ASSERT_TRUE(detector.Fit(train).ok());
  EXPECT_EQ(detector.train_sanitize_report().non_finite_samples, 1);
  EXPECT_EQ(detector.train_sanitize_report().repaired_samples, 1);

  // Same for a single Inf in the test series; the result carries the report.
  std::vector<double> test = Sine(300, 25.0);
  test[50] = std::numeric_limits<double>::infinity();
  auto result = detector.Detect(test);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->sanitize_report.non_finite_samples, 1);
  EXPECT_EQ(result->sanitize_report.repaired_samples, 1);
}

TEST(DetectorTest, StrictSanitizeModeRejectsNonFiniteInput) {
  // With repair disabled the pre-hardening contract applies: any
  // non-finite sample is an InvalidArgument.
  TriadConfig config = TinyConfig();
  config.sanitize.repair = false;
  std::vector<double> train = Sine(500, 25.0);
  train[100] = std::numeric_limits<double>::quiet_NaN();
  TriadDetector detector(config);
  const Status s = detector.Fit(train);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("non-finite"), std::string::npos);

  TriadDetector fitted(config);
  ASSERT_TRUE(fitted.Fit(Sine(500, 25.0)).ok());
  std::vector<double> test = Sine(300, 25.0);
  test[50] = std::numeric_limits<double>::infinity();
  const auto result = fitted.Detect(test);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DetectorTest, RejectsUnrepairableInput) {
  // A 40-sample dropout exceeds max_interpolate_gap: reject, don't guess.
  std::vector<double> train = Sine(500, 25.0);
  for (int64_t i = 200; i < 240; ++i) {
    train[static_cast<size_t>(i)] = std::numeric_limits<double>::quiet_NaN();
  }
  TriadDetector detector(TinyConfig());
  const Status s = detector.Fit(train);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(DetectorTest, FitRejectsInvalidConfigGracefully) {
  TriadConfig config = TinyConfig();
  config.depth = 0;
  TriadDetector detector(config);
  const Status s = detector.Fit(Sine(500, 25.0));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  TriadConfig no_domains = TinyConfig();
  no_domains.use_temporal = false;
  no_domains.use_frequency = false;
  no_domains.use_residual = false;
  TriadDetector empty(no_domains);
  EXPECT_FALSE(empty.Fit(Sine(500, 25.0)).ok());
}

TEST(DetectorTest, PeriodConfidenceFallsBackOnNoise) {
  // White noise has no periodicity: the ACF confidence collapses and the
  // detector segments on the fallback period instead of a nonsense
  // estimate.
  Rng rng(123);
  std::vector<double> noise(600);
  for (auto& v : noise) v = rng.Normal();
  TriadConfig config = TinyConfig();
  config.fallback_period = 24;
  // Finite-sample ACF noise sits at ~1/sqrt(n); 0.2 keeps a wide margin on
  // both sides (noise << 0.2 << periodic ~1).
  config.min_period_confidence = 0.2;
  TriadDetector detector(config);
  ASSERT_TRUE(detector.Fit(noise).ok());
  EXPECT_TRUE(detector.period_fallback());
  EXPECT_LT(detector.period_confidence(), config.min_period_confidence);
  EXPECT_EQ(detector.period(), 24);

  // A clean periodic series keeps the estimate and a high confidence.
  TriadDetector periodic(TinyConfig());
  ASSERT_TRUE(periodic.Fit(Sine(500, 25.0)).ok());
  EXPECT_FALSE(periodic.period_fallback());
  EXPECT_GT(periodic.period_confidence(), 0.5);
}

TEST(DetectorTest, SurvivesNearConstantTraining) {
  // Degenerate input: a flat series with microscopic noise. Period
  // estimation and training must not crash; Fit may succeed or fail
  // gracefully, but never abort.
  Rng rng(77);
  std::vector<double> flat(600, 3.0);
  for (auto& v : flat) v += rng.Normal(0.0, 1e-6);
  TriadDetector detector(TinyConfig());
  const Status s = detector.Fit(flat);
  if (s.ok()) {
    auto result = detector.Detect(std::vector<double>(flat.begin(),
                                                      flat.begin() + 300));
    // Outputs, if produced, are well-formed.
    if (result.ok()) {
      EXPECT_EQ(result->predictions.size(), 300u);
    }
  }
}

}  // namespace
}  // namespace triad::core
