// Deterministic fault-injection harness over the golden detector fixture.
//
// Every (FaultClass, FaultSeverity) cell of the corruption taxonomy is
// applied to the fixed-seed fixture and driven through Fit and Detect at
// every SIMD dispatch tier. The contract under test (ARCHITECTURE.md §5):
//
//   * no cell may crash, at any tier, under any sanitizer;
//   * severe cells reject with StatusCode::kInvalidArgument;
//   * mild and moderate cells are accepted (repaired or degraded);
//   * clean input passes through bit-identically;
//   * repairable mild corruption does not change the verdict — the
//     detector still localizes the planted anomaly;
//   * a CRC-valid checkpoint with a hostile config, geometry or tensor
//     shapes fails Load with InvalidArgument (ARCHITECTURE.md §10);
//   * the same body framed as a version-2 checkpoint loads to the same
//     Detect output.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/durable_io.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/status.h"
#include "core/detector.h"
#include "data/ucr_generator.h"
#include "testing/fault_injection.h"

namespace triad {
namespace {

using testing::ExpectedOutcome;
using testing::ExpectedOutcomeFor;
using testing::FaultCellName;
using testing::FaultClass;
using testing::FaultSeverity;
using testing::InjectFault;
using testing::kAllFaultClasses;
using testing::kAllFaultSeverities;

// Same fixture as detector_golden_test: a strongly planted seasonal anomaly
// with wide decision margins, so verdict-preservation assertions are stable.
data::UcrDataset FixtureDataset() {
  data::UcrGeneratorOptions gen;
  gen.count = 1;
  gen.seed = 54;
  gen.min_period = 32;
  gen.max_period = 40;
  gen.min_train_periods = 14;
  gen.max_train_periods = 16;
  gen.min_test_periods = 10;
  gen.max_test_periods = 12;
  gen.severity = 1.0;
  Rng rng(gen.seed);
  return data::MakeUcrDataset(gen, 0, data::AnomalyType::kSeasonal, "sine",
                              &rng);
}

core::TriadConfig FixtureConfig() {
  core::TriadConfig config;
  config.depth = 2;
  config.hidden_dim = 8;
  config.epochs = 4;
  config.seed = 17;
  config.merlin_length_step = 4;
  return config;
}

// One deterministic RNG seed per grid cell, so reruns are reproducible and
// every cell plants its fault at a (slightly) different jittered position.
uint64_t CellSeed(FaultClass c, FaultSeverity s) {
  return 1000 + 31 * static_cast<uint64_t>(c) + static_cast<uint64_t>(s);
}

bool AnyFlagNear(const std::vector<int>& predictions, int64_t begin,
                 int64_t end, int64_t margin) {
  const int64_t n = static_cast<int64_t>(predictions.size());
  for (int64_t i = std::max<int64_t>(0, begin - margin);
       i < std::min(n, end + margin); ++i) {
    if (predictions[static_cast<size_t>(i)] != 0) return true;
  }
  return false;
}

class FaultInjectionTest : public ::testing::TestWithParam<simd::Level> {};

std::vector<simd::Level> TiersUnderTest() {
  std::vector<simd::Level> tiers = {simd::Level::kScalar};
  const simd::Level best = simd::HighestSupportedLevel();
  if (best != simd::Level::kScalar) tiers.push_back(best);
  return tiers;
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, FaultInjectionTest, ::testing::ValuesIn(TiersUnderTest()),
    [](const ::testing::TestParamInfo<simd::Level>& info) {
      return std::string(simd::LevelName(info.param));
    });

// Detect over the full class x severity grid against a detector fitted on
// the clean train split.
TEST_P(FaultInjectionTest, DetectGridMatchesTheContract) {
  simd::ScopedForceLevel force(GetParam());
  const data::UcrDataset ds = FixtureDataset();
  core::TriadDetector detector(FixtureConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());

  for (FaultClass c : kAllFaultClasses) {
    for (FaultSeverity s : kAllFaultSeverities) {
      SCOPED_TRACE(FaultCellName(c, s));
      const std::vector<double> corrupted =
          InjectFault(ds.test, c, s, CellSeed(c, s));
      auto result = detector.Detect(corrupted);
      if (ExpectedOutcomeFor(c, s) == ExpectedOutcome::kReject) {
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
        continue;
      }
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->predictions.size(), corrupted.size());
      ASSERT_EQ(result->votes.size(), corrupted.size());
      for (double v : result->votes) EXPECT_TRUE(std::isfinite(v));
    }
  }
}

// Fit over the full grid: severe corruption of the training split rejects,
// everything milder trains a still-usable detector.
TEST_P(FaultInjectionTest, FitGridMatchesTheContract) {
  simd::ScopedForceLevel force(GetParam());
  const data::UcrDataset ds = FixtureDataset();

  for (FaultClass c : kAllFaultClasses) {
    for (FaultSeverity s : kAllFaultSeverities) {
      SCOPED_TRACE(FaultCellName(c, s));
      const std::vector<double> corrupted =
          InjectFault(ds.train, c, s, CellSeed(c, s));
      core::TriadDetector detector(FixtureConfig());
      const Status status = detector.Fit(corrupted);
      if (ExpectedOutcomeFor(c, s) == ExpectedOutcome::kReject) {
        // Truncation severity is calibrated against the *test* split and a
        // fully-fitted window; a severely truncated train split may instead
        // refit a shorter window via the degradation ladder. Either outcome
        // is in-contract for Fit — what is not allowed is a crash or a
        // status other than InvalidArgument.
        if (c == FaultClass::kTruncation) {
          if (!status.ok()) {
            EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
          }
          continue;
        }
        ASSERT_FALSE(status.ok());
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
        continue;
      }
      ASSERT_TRUE(status.ok()) << status.ToString();
      // A detector fitted on repaired/degraded data must still score clean
      // test data without error.
      auto result = detector.Detect(ds.test);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->predictions.size(), ds.test.size());
    }
  }
}

// Sanitize is the identity on clean data: repeated runs over the clean
// fixture are bit-identical and report no defects.
TEST_P(FaultInjectionTest, CleanInputIsBitIdenticalAcrossRuns) {
  simd::ScopedForceLevel force(GetParam());
  const data::UcrDataset ds = FixtureDataset();
  core::TriadDetector detector(FixtureConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());
  EXPECT_TRUE(detector.train_sanitize_report().clean());

  auto first = detector.Detect(ds.test);
  auto second = detector.Detect(ds.test);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(first->sanitize_report.clean());
  EXPECT_EQ(first->predictions, second->predictions);
  ASSERT_EQ(first->votes.size(), second->votes.size());
  for (size_t i = 0; i < first->votes.size(); ++i) {
    // Bitwise equality, not tolerance: same tier, same input, same bits.
    EXPECT_EQ(first->votes[i], second->votes[i]) << i;
  }
  EXPECT_EQ(first->selected_window, second->selected_window);

  // A freshly fitted detector reproduces the same verdict too.
  core::TriadDetector again(FixtureConfig());
  ASSERT_TRUE(again.Fit(ds.train).ok());
  auto third = again.Detect(ds.test);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(first->predictions, third->predictions);
}

// Repairable mild corruption (interpolated gaps, clamped glitches) must not
// change the verdict: the detector still localizes the planted anomaly.
// Mild stuck/dropout runs are deliberately NOT repaired (the data is gone),
// and mild truncation changes the series length, so those cells only carry
// the accept/no-crash contract above.
TEST_P(FaultInjectionTest, MildRepairPreservesTheVerdict) {
  simd::ScopedForceLevel force(GetParam());
  const data::UcrDataset ds = FixtureDataset();
  core::TriadDetector detector(FixtureConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());

  auto clean = detector.Detect(ds.test);
  ASSERT_TRUE(clean.ok());
  const int64_t margin = clean->window_length;
  ASSERT_TRUE(AnyFlagNear(clean->predictions, ds.anomaly_begin,
                          ds.anomaly_end, margin))
      << "fixture must detect its own planted anomaly";

  const FaultClass repairable[] = {FaultClass::kNanGap, FaultClass::kInfSpike,
                                   FaultClass::kScaleGlitch};
  for (FaultClass c : repairable) {
    SCOPED_TRACE(FaultCellName(c, FaultSeverity::kMild));
    const std::vector<double> corrupted =
        InjectFault(ds.test, c, FaultSeverity::kMild,
                    CellSeed(c, FaultSeverity::kMild));
    auto repaired = detector.Detect(corrupted);
    ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
    EXPECT_GT(repaired->sanitize_report.repaired_samples, 0);
    EXPECT_TRUE(AnyFlagNear(repaired->predictions, ds.anomaly_begin,
                            ds.anomaly_end, margin));
  }
}

// ---------- hostile checkpoints: CRC-valid bodies with bad geometry ----------
//
// A checkpoint's CRC proves its bytes are the ones written, not that the
// writer was this program. Each case rewrites one header field of a saved
// checkpoint body and re-checksums it, so only the value is wrong; Load must
// return InvalidArgument instead of handing Detect a geometry that aborts
// (stride 0, a window shorter than the features need or longer than the
// training series) or allocating what the body does not hold.

constexpr char kCheckpointMagic[4] = {'T', 'R', 'D', 'T'};

struct SavedCheckpoint {
  std::string body;
  uint32_t version = 0;
  size_t geometry_at = 0;  ///< offset of period, window_length, stride
  uint64_t train_count = 0;
  std::vector<double> test;
};

template <typename T>
void Poke(std::string* body, size_t at, T value) {
  ASSERT_LE(at + sizeof(T), body->size());
  std::memcpy(body->data() + at, &value, sizeof(T));
}

// The fixture's saved checkpoint body; empty if the set-up failed, so every
// case that pokes or loads it fails instead of reading out of bounds.
const SavedCheckpoint& Saved() {
  static const SavedCheckpoint saved = [] {
    SavedCheckpoint out;
    const data::UcrDataset ds = FixtureDataset();
    out.test = ds.test;
    core::TriadDetector detector(FixtureConfig());
    const std::string path = ::testing::TempDir() + "triad_geometry.ckpt";
    EXPECT_TRUE(detector.Fit(ds.train).ok());
    EXPECT_TRUE(detector.Save(path).ok());
    auto body = io::ReadChecksummedFile(path, kCheckpointMagic, &out.version);
    std::remove(path.c_str());
    EXPECT_TRUE(body.ok()) << body.status().ToString();
    if (!body.ok()) return out;
    // The three int64 geometry fields sit together in the header; find them
    // by value rather than hard-coding the config block's size. After them
    // come the period confidence (double), two flag bytes and the
    // training-series count.
    const int64_t geometry[3] = {detector.period(), detector.window_length(),
                                 detector.stride()};
    const size_t at = body->find(std::string(
        reinterpret_cast<const char*>(geometry), sizeof(geometry)));
    EXPECT_NE(at, std::string::npos);
    if (at == std::string::npos || at + 42 > body->size()) return out;
    std::memcpy(&out.train_count, body->data() + at + 34, sizeof(uint64_t));
    EXPECT_EQ(out.train_count, ds.train.size());
    out.geometry_at = at;
    out.body = *body;
    return out;
  }();
  return saved;
}

size_t WindowLengthAt() { return Saved().geometry_at + 8; }
size_t StrideAt() { return Saved().geometry_at + 16; }
size_t TrainCountAt() { return Saved().geometry_at + 34; }

Result<core::TriadDetector> LoadBody(const std::string& body) {
  const std::string path = ::testing::TempDir() + "triad_hostile.ckpt";
  EXPECT_TRUE(
      io::WriteChecksummedFile(path, kCheckpointMagic, Saved().version, body)
          .ok());
  Result<core::TriadDetector> loaded = core::TriadDetector::Load(path);
  std::remove(path.c_str());
  return loaded;
}

void ExpectRejected(const std::string& body) {
  const Result<core::TriadDetector> loaded = LoadBody(body);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();
}

TEST(CheckpointGeometryTest, UntouchedBodyLoadsAndDetects) {
  Result<core::TriadDetector> loaded = LoadBody(Saved().body);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->Detect(Saved().test).ok());
}

TEST(CheckpointGeometryTest, RejectsZeroStride) {
  std::string body = Saved().body;
  Poke<int64_t>(&body, StrideAt(), 0);
  ExpectRejected(body);
}

TEST(CheckpointGeometryTest, RejectsStrideAboveWindowLength) {
  std::string body = Saved().body;
  int64_t window_length = 0;
  std::memcpy(&window_length, body.data() + WindowLengthAt(), 8);
  Poke<int64_t>(&body, StrideAt(), window_length + 1);
  ExpectRejected(body);
}

TEST(CheckpointGeometryTest, RejectsWindowBelowFeatureMinimum) {
  std::string body = Saved().body;
  Poke<int64_t>(&body, WindowLengthAt(), 3);
  Poke<int64_t>(&body, StrideAt(), 1);
  ExpectRejected(body);
}

TEST(CheckpointGeometryTest, RejectsWindowLongerThanTrainingSeries) {
  std::string body = Saved().body;
  Poke<int64_t>(&body, WindowLengthAt(),
                static_cast<int64_t>(Saved().train_count) + 1);
  ExpectRejected(body);
}

TEST(CheckpointGeometryTest, RejectsTrainCountBeyondBody) {
  for (uint64_t count : {Saved().train_count + (1u << 20), uint64_t{1} << 32}) {
    std::string body = Saved().body;
    Poke<uint64_t>(&body, TrainCountAt(), count);
    ExpectRejected(body);
  }
}

// The body with its first weight tensor's shape set to dim x dim. The
// weights follow the training series as a TRTN tensor stream: magic, u32
// version, u64 count, then the first tensor's u32 rank and int64 dims.
std::string WithSquareFirstTensor(int64_t dim) {
  std::string body = Saved().body;
  const size_t tensors_at = TrainCountAt() + 8 + Saved().train_count * 8;
  EXPECT_EQ(body.compare(tensors_at, 4, "TRTN"), 0);
  const size_t rank_at = tensors_at + 4 + 4 + 8;
  Poke<uint32_t>(&body, rank_at, 2);
  Poke<int64_t>(&body, rank_at + 4, dim);
  Poke<int64_t>(&body, rank_at + 12, dim);
  return body;
}

// 2^40 x 2^40 elements overflows int64.
TEST(CheckpointGeometryTest, RejectsOverflowingTensorShape) {
  ExpectRejected(WithSquareFirstTensor(int64_t{1} << 40));
}

// 2^15 x 2^15 floats (4 GiB) is within the element cap, but the body does
// not hold them: Load rejects it without sizing anything from the shape.
TEST(CheckpointGeometryTest, RejectsTensorShapeTheBodyDoesNotHold) {
  ExpectRejected(WithSquareFirstTensor(int64_t{1} << 15));
}

// A v1/v2 checkpoint is the magic, the version and an unchecksummed body
// laid out as v3's. The v3 body framed as v2 loads to the same detector.
TEST(CheckpointVersionTest, V2FramedBodyLoadsLikeV3) {
  ASSERT_FALSE(Saved().body.empty());
  const std::string path = ::testing::TempDir() + "triad_v2.ckpt";
  {
    std::string bytes(kCheckpointMagic, sizeof(kCheckpointMagic));
    const uint32_t version = 2;
    bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
    bytes += Saved().body;
    ASSERT_TRUE(io::AtomicWriteFile(path, bytes).ok());
  }
  Result<core::TriadDetector> v2 = core::TriadDetector::Load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  Result<core::TriadDetector> v3 = LoadBody(Saved().body);
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();

  auto a = v2->Detect(Saved().test);
  auto b = v3->Detect(Saved().test);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->predictions, b->predictions);
  EXPECT_EQ(a->votes, b->votes);
  EXPECT_EQ(a->selected_window, b->selected_window);
  ASSERT_EQ(a->discords.size(), b->discords.size());
  for (size_t i = 0; i < a->discords.size(); ++i) {
    EXPECT_EQ(a->discords[i].position, b->discords[i].position) << i;
    EXPECT_EQ(a->discords[i].length, b->discords[i].length) << i;
    EXPECT_EQ(a->discords[i].distance, b->discords[i].distance) << i;
  }
}

// ---------- hostile checkpoints: CRC-valid bodies with a bad config ----------
//
// The config block opens the body: periods_per_window (f64), then the
// int64 stride_divisor, depth and hidden_dim, eight-byte fields on to the
// seed at 88, then one byte each for use_temporal, use_frequency and
// use_residual. A config Fit would refuse must fail Load with a Status,
// not abort in the model constructor.

constexpr size_t kDepthAt = 16;
constexpr size_t kHiddenDimAt = 24;
constexpr size_t kKernelSizeAt = 32;
constexpr size_t kDomainFlagsAt = 96;

int64_t PeekInt64(const std::string& body, size_t at) {
  int64_t value = -1;
  if (at + sizeof(value) <= body.size()) {
    std::memcpy(&value, body.data() + at, sizeof(value));
  }
  return value;
}

TEST(CheckpointConfigTest, RejectsNoEnabledDomain) {
  std::string body = Saved().body;
  ASSERT_EQ(body.compare(kDomainFlagsAt, 3, std::string(3, '\1')), 0);
  for (size_t i = 0; i < 3; ++i) Poke<uint8_t>(&body, kDomainFlagsAt + i, 0);
  ExpectRejected(body);
}

TEST(CheckpointConfigTest, RejectsZeroDepth) {
  std::string body = Saved().body;
  ASSERT_EQ(PeekInt64(body, kDepthAt), FixtureConfig().depth);
  Poke<int64_t>(&body, kDepthAt, 0);
  ExpectRejected(body);
}

TEST(CheckpointConfigTest, RejectsZeroHiddenDim) {
  std::string body = Saved().body;
  ASSERT_EQ(PeekInt64(body, kHiddenDimAt), FixtureConfig().hidden_dim);
  Poke<int64_t>(&body, kHiddenDimAt, 0);
  ExpectRejected(body);
}

// A valid config whose model the stored tensors do not describe. Load
// compares the shapes the config implies before it builds anything, so a
// width, kernel or depth that would ask for gigabytes (or millions of
// blocks) costs nothing.
void ExpectRejectedWith(size_t at, int64_t original, int64_t value) {
  std::string body = Saved().body;
  ASSERT_EQ(PeekInt64(body, at), original);
  Poke<int64_t>(&body, at, value);
  ExpectRejected(body);
}

TEST(CheckpointConfigTest, RejectsHiddenDimTheTensorsDoNotHold) {
  ExpectRejectedWith(kHiddenDimAt, FixtureConfig().hidden_dim, 65536);
  ExpectRejectedWith(kHiddenDimAt, FixtureConfig().hidden_dim,
                     int64_t{1} << 20);
}

TEST(CheckpointConfigTest, RejectsKernelSizeTheTensorsDoNotHold) {
  ExpectRejectedWith(kKernelSizeAt, FixtureConfig().kernel_size,
                     int64_t{1} << 24);
}

TEST(CheckpointConfigTest, RejectsDepthTheTensorsDoNotHold) {
  ExpectRejectedWith(kDepthAt, FixtureConfig().depth, int64_t{1} << 20);
}

}  // namespace
}  // namespace triad
