// Fixed-seed train -> detect golden-trace regression for the full TriAD
// pipeline. The trace pins exactly the artifacts ISSUE'd as the detector's
// observable contract: the selected suspect window, the discord set, and
// the point-wise vote vector (plus the 0/1 predictions derived from them).
//
// The trace is checked against BOTH dispatch tiers: the scalar reference
// and the best level this host supports. Integer outcomes must match
// exactly; floating-point outcomes are compared with a tight relative
// tolerance (~1e-9) that absorbs cross-libm ULP noise while still catching
// any real numerical regression.
//
// A second trace pins the multi-event path, DetectEvents(test, 2), on the
// same scenario: two regions searched, two windows voting.
//
// Regenerate after an intentional behaviour change with
//   TRIAD_UPDATE_GOLDEN=1 ./detector_golden_test
// which rewrites tests/testdata/detector_golden.txt and
// tests/testdata/detector_events_golden.txt from the scalar tier.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/detector.h"
#include "data/ucr_generator.h"

#ifndef TRIAD_GOLDEN_DIR
#error "TRIAD_GOLDEN_DIR must be defined by the build"
#endif

namespace triad {
namespace {

std::string GoldenPath(const std::string& file) {
  return std::string(TRIAD_GOLDEN_DIR) + "/" + file;
}

// Everything the golden file pins, in one flat struct.
struct GoldenTrace {
  int64_t window_length = 0;
  int64_t stride = 0;
  int64_t selected_window = -1;
  std::vector<int64_t> candidate_windows;
  int64_t search_begin = 0;
  int64_t search_end = 0;
  double vote_threshold = 0.0;
  int exception_applied = 0;
  std::vector<int64_t> discord_positions;
  std::vector<int64_t> discord_lengths;
  std::vector<double> discord_distances;
  std::vector<int> predictions;
  std::vector<double> votes;
};

GoldenTrace TraceFrom(const core::DetectionResult& result) {
  GoldenTrace t;
  t.window_length = result.window_length;
  t.stride = result.stride;
  t.selected_window = result.selected_window;
  t.candidate_windows = result.candidate_windows;
  t.search_begin = result.search_begin;
  t.search_end = result.search_end;
  t.vote_threshold = result.vote_threshold;
  t.exception_applied = result.exception_applied ? 1 : 0;
  for (const discord::Discord& d : result.discords) {
    t.discord_positions.push_back(d.position);
    t.discord_lengths.push_back(d.length);
    t.discord_distances.push_back(d.distance);
  }
  t.predictions = result.predictions;
  t.votes = result.votes;
  return t;
}

void WriteGolden(const std::string& path, const GoldenTrace& t) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << std::setprecision(17);
  out << "# TriAD detector golden trace (scalar tier). Regenerate with\n"
      << "#   TRIAD_UPDATE_GOLDEN=1 ./detector_golden_test\n";
  out << "window_length " << t.window_length << "\n";
  out << "stride " << t.stride << "\n";
  out << "selected_window " << t.selected_window << "\n";
  out << "candidate_windows " << t.candidate_windows.size();
  for (int64_t w : t.candidate_windows) out << " " << w;
  out << "\n";
  out << "search_begin " << t.search_begin << "\n";
  out << "search_end " << t.search_end << "\n";
  out << "vote_threshold " << t.vote_threshold << "\n";
  out << "exception_applied " << t.exception_applied << "\n";
  out << "discords " << t.discord_positions.size() << "\n";
  for (size_t i = 0; i < t.discord_positions.size(); ++i) {
    out << t.discord_positions[i] << " " << t.discord_lengths[i] << " "
        << t.discord_distances[i] << "\n";
  }
  out << "predictions " << t.predictions.size();
  for (int p : t.predictions) out << " " << p;
  out << "\n";
  out << "votes " << t.votes.size() << "\n";
  for (double v : t.votes) out << v << "\n";
  ASSERT_TRUE(out.good());
}

bool ReadGolden(const std::string& path, GoldenTrace* t) {
  std::ifstream in(path);
  if (!in.good()) return false;
  std::string line;
  // Skip comment header lines.
  std::stringstream body;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') continue;
    body << line << "\n";
  }
  std::string key;
  size_t count = 0;
  auto expect_key = [&](const char* want) {
    body >> key;
    return body.good() && key == want;
  };
  if (!expect_key("window_length")) return false;
  body >> t->window_length;
  if (!expect_key("stride")) return false;
  body >> t->stride;
  if (!expect_key("selected_window")) return false;
  body >> t->selected_window;
  if (!expect_key("candidate_windows")) return false;
  body >> count;
  t->candidate_windows.resize(count);
  for (auto& w : t->candidate_windows) body >> w;
  if (!expect_key("search_begin")) return false;
  body >> t->search_begin;
  if (!expect_key("search_end")) return false;
  body >> t->search_end;
  if (!expect_key("vote_threshold")) return false;
  body >> t->vote_threshold;
  if (!expect_key("exception_applied")) return false;
  body >> t->exception_applied;
  if (!expect_key("discords")) return false;
  body >> count;
  t->discord_positions.resize(count);
  t->discord_lengths.resize(count);
  t->discord_distances.resize(count);
  for (size_t i = 0; i < count; ++i) {
    body >> t->discord_positions[i] >> t->discord_lengths[i] >>
        t->discord_distances[i];
  }
  if (!expect_key("predictions")) return false;
  body >> count;
  t->predictions.resize(count);
  for (auto& p : t->predictions) body >> p;
  if (!expect_key("votes")) return false;
  body >> count;
  t->votes.resize(count);
  for (auto& v : t->votes) body >> v;
  return !body.fail();
}

// Relative-or-absolute closeness: |a - b| <= tol * max(1, |a|, |b|).
void ExpectClose(double got, double want, double tol, const std::string& what) {
  const double scale = std::max({1.0, std::abs(got), std::abs(want)});
  EXPECT_LE(std::abs(got - want), tol * scale)
      << what << ": got " << std::setprecision(17) << got << ", golden "
      << want;
}

// Doubles carry a tolerance for cross-platform libm ULP noise.
constexpr double kGoldenTol = 1e-9;

void ExpectMatchesGolden(const GoldenTrace& got, const GoldenTrace& golden,
                         const std::string& tier) {
  SCOPED_TRACE("tier=" + tier);
  // Integer-valued outcomes are exact.
  EXPECT_EQ(got.window_length, golden.window_length);
  EXPECT_EQ(got.stride, golden.stride);
  EXPECT_EQ(got.selected_window, golden.selected_window);
  EXPECT_EQ(got.candidate_windows, golden.candidate_windows);
  EXPECT_EQ(got.search_begin, golden.search_begin);
  EXPECT_EQ(got.search_end, golden.search_end);
  EXPECT_EQ(got.exception_applied, golden.exception_applied);
  EXPECT_EQ(got.discord_positions, golden.discord_positions);
  EXPECT_EQ(got.discord_lengths, golden.discord_lengths);
  EXPECT_EQ(got.predictions, golden.predictions);
  ExpectClose(got.vote_threshold, golden.vote_threshold, kGoldenTol,
              "vote_threshold");
  ASSERT_EQ(got.discord_distances.size(), golden.discord_distances.size());
  for (size_t i = 0; i < golden.discord_distances.size(); ++i) {
    ExpectClose(got.discord_distances[i], golden.discord_distances[i],
                kGoldenTol, "discord_distance[" + std::to_string(i) + "]");
  }
  ASSERT_EQ(got.votes.size(), golden.votes.size());
  for (size_t i = 0; i < golden.votes.size(); ++i) {
    ExpectClose(got.votes[i], golden.votes[i], kGoldenTol,
                "votes[" + std::to_string(i) + "]");
  }
}

// The fixed scenario: strongly planted seasonal anomaly so every integer
// outcome (window choice, discord positions, predictions) has a wide
// decision margin and is stable across dispatch tiers and platforms.
data::UcrDataset GoldenDataset() {
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

core::TriadConfig GoldenConfig() {
  core::TriadConfig config;
  config.depth = 2;
  config.hidden_dim = 8;
  config.epochs = 4;
  config.seed = 17;
  config.merlin_length_step = 4;
  return config;
}

// Fits the golden scenario at `level` and traces DetectEvents(test,
// max_events), or Detect(test) when max_events is 0.
GoldenTrace RunPipeline(simd::Level level, int64_t max_events = 0) {
  simd::ScopedForceLevel force(level);
  const data::UcrDataset ds = GoldenDataset();
  core::TriadDetector detector(GoldenConfig());
  EXPECT_TRUE(detector.Fit(ds.train).ok());
  auto result = max_events == 0 ? detector.Detect(ds.test)
                                : detector.DetectEvents(ds.test, max_events);
  EXPECT_TRUE(result.ok());
  return TraceFrom(*result);
}

// Checks the scalar trace, and the best tier's, against golden `file`;
// under TRIAD_UPDATE_GOLDEN=1 rewrites the file from the scalar trace.
void ExpectGoldenOnEveryTier(const std::string& file, int64_t max_events,
                             const GoldenTrace& scalar_trace) {
  const std::string path = GoldenPath(file);
  if (GetEnvInt("TRIAD_UPDATE_GOLDEN", 0) != 0) {
    WriteGolden(path, scalar_trace);
    GTEST_SKIP() << "golden trace regenerated at " << path;
  }

  GoldenTrace golden;
  ASSERT_TRUE(ReadGolden(path, &golden))
      << "missing/corrupt " << path
      << " — regenerate with TRIAD_UPDATE_GOLDEN=1";

  ExpectMatchesGolden(scalar_trace, golden, "scalar");

  const simd::Level best = simd::HighestSupportedLevel();
  if (best != simd::Level::kScalar) {
    ExpectMatchesGolden(RunPipeline(best, max_events), golden,
                        simd::LevelName(best));
  }
}

TEST(DetectorGoldenTest, TraceMatchesGoldenOnEveryTier) {
  ExpectGoldenOnEveryTier("detector_golden.txt", /*max_events=*/0,
                          RunPipeline(simd::Level::kScalar));
}

// The multi-event path: two non-overlapping windows, a discord search
// around each, one vote. search_begin/end is the first window's region,
// so a discord outside it shows that the second region was searched too.
TEST(DetectorGoldenTest, EventsTraceMatchesGoldenOnEveryTier) {
  const GoldenTrace scalar_trace =
      RunPipeline(simd::Level::kScalar, /*max_events=*/2);
  int64_t outside = 0;
  for (int64_t p : scalar_trace.discord_positions) {
    outside += p < scalar_trace.search_begin || p >= scalar_trace.search_end;
  }
  EXPECT_GT(outside, 0) << "no discord outside the first search region";
  ExpectGoldenOnEveryTier("detector_events_golden.txt", /*max_events=*/2,
                          scalar_trace);
}

// The observability invariant (ARCHITECTURE.md §6): metrics and trace
// recording never feed back into computation. The pipeline trace must be
// BIT-identical — exact EXPECT_EQ on every double, no tolerance — with
// metrics on and off, on every dispatch tier this host supports.
void ExpectBitIdentical(const GoldenTrace& on, const GoldenTrace& off,
                        const std::string& tier) {
  SCOPED_TRACE("tier=" + tier);
  EXPECT_EQ(on.window_length, off.window_length);
  EXPECT_EQ(on.stride, off.stride);
  EXPECT_EQ(on.selected_window, off.selected_window);
  EXPECT_EQ(on.candidate_windows, off.candidate_windows);
  EXPECT_EQ(on.search_begin, off.search_begin);
  EXPECT_EQ(on.search_end, off.search_end);
  EXPECT_EQ(on.vote_threshold, off.vote_threshold);
  EXPECT_EQ(on.exception_applied, off.exception_applied);
  EXPECT_EQ(on.discord_positions, off.discord_positions);
  EXPECT_EQ(on.discord_lengths, off.discord_lengths);
  EXPECT_EQ(on.discord_distances, off.discord_distances);
  EXPECT_EQ(on.predictions, off.predictions);
  EXPECT_EQ(on.votes, off.votes);
}

TEST(DetectorGoldenTest, MetricsOnOffLeavesTraceBitIdenticalOnEveryTier) {
  std::vector<simd::Level> tiers = {simd::Level::kScalar};
  const simd::Level best = simd::HighestSupportedLevel();
  if (best != simd::Level::kScalar) tiers.push_back(best);

  for (simd::Level tier : tiers) {
    GoldenTrace with_metrics, without_metrics;
    {
      metrics::ScopedEnable enable(true);
      const metrics::Histogram& encode_spans =
          *metrics::Registry::Global().histogram("detector.encode");
      const uint64_t spans_before = encode_spans.count();
      with_metrics = RunPipeline(tier);
      // Recording actually happened: the stage spans reached the registry.
      EXPECT_GT(encode_spans.count(), spans_before);
    }
    {
      metrics::ScopedEnable disable(false);
      without_metrics = RunPipeline(tier);
    }
    ExpectBitIdentical(with_metrics, without_metrics, simd::LevelName(tier));
  }
}

// The trace itself must describe a successful detection: a window was
// selected, discords were found, and the votes localize the planted
// anomaly. Guards against regenerating a golden file from a broken run.
TEST(DetectorGoldenTest, GoldenScenarioDetectsThePlantedAnomaly) {
  const data::UcrDataset ds = GoldenDataset();
  const GoldenTrace t = RunPipeline(simd::Level::kScalar);
  ASSERT_GE(t.selected_window, 0);
  ASSERT_FALSE(t.discord_positions.empty());
  ASSERT_EQ(t.votes.size(), ds.test.size());
  // Vote mass concentrates around the planted event.
  double inside = 0.0, outside = 0.0;
  int64_t inside_count = 0, outside_count = 0;
  const int64_t margin = t.window_length;
  for (int64_t i = 0; i < static_cast<int64_t>(t.votes.size()); ++i) {
    const bool near =
        i >= ds.anomaly_begin - margin && i < ds.anomaly_end + margin;
    (near ? inside : outside) += t.votes[static_cast<size_t>(i)];
    ++(near ? inside_count : outside_count);
  }
  ASSERT_GT(inside_count, 0);
  ASSERT_GT(outside_count, 0);
  EXPECT_GT(inside / static_cast<double>(inside_count),
            outside / static_cast<double>(outside_count));
}

}  // namespace
}  // namespace triad
