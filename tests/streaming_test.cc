#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/simd.h"
#include "core/streaming.h"
#include "data/ucr_generator.h"

namespace triad::core {
namespace {

TriadConfig TinyConfig() {
  TriadConfig config;
  config.depth = 2;
  config.hidden_dim = 8;
  config.epochs = 3;
  config.seed = 5;
  config.merlin_length_step = 4;
  return config;
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

TEST(StreamingTest, DefaultsDeriveFromDetector) {
  const data::UcrDataset ds = SmallDataset(61);
  TriadDetector detector(TinyConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());
  StreamingTriad stream(&detector);
  EXPECT_EQ(stream.buffer_length(), 4 * detector.window_length());
  EXPECT_EQ(stream.hop(), detector.stride());
  EXPECT_EQ(stream.total_points(), 0);
  EXPECT_EQ(stream.passes(), 0);
}

TEST(StreamingTest, NoPassesUntilBufferFills) {
  const data::UcrDataset ds = SmallDataset(62);
  TriadDetector detector(TinyConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());
  StreamingTriad stream(&detector);
  const int64_t few = stream.buffer_length() - 1;
  auto events = stream.Append(std::vector<double>(
      ds.test.begin(), ds.test.begin() + few));
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(events->empty());
  EXPECT_EQ(stream.passes(), 0);
  EXPECT_EQ(stream.total_points(), few);
}

TEST(StreamingTest, ChunkedFeedFindsTheAnomaly) {
  const data::UcrDataset ds = SmallDataset(63);
  TriadDetector detector(TinyConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());

  StreamingOptions options;
  options.hop = detector.window_length();  // score once per window of input
  StreamingTriad stream(&detector, options);

  // Feed in odd-sized chunks to exercise buffer bookkeeping.
  std::vector<AlarmEvent> all_events;
  const int64_t chunk = 37;
  for (size_t off = 0; off < ds.test.size(); off += chunk) {
    const size_t hi = std::min(ds.test.size(), off + chunk);
    auto events = stream.Append(std::vector<double>(
        ds.test.begin() + static_cast<long>(off),
        ds.test.begin() + static_cast<long>(hi)));
    ASSERT_TRUE(events.ok()) << events.status().ToString();
    for (const AlarmEvent& e : *events) all_events.push_back(e);
  }
  EXPECT_EQ(stream.total_points(), static_cast<int64_t>(ds.test.size()));
  EXPECT_GT(stream.passes(), 0);

  // Some alarm within one window of the true anomaly.
  bool near_truth = false;
  const int64_t margin = detector.window_length();
  for (const AlarmEvent& e : all_events) {
    near_truth = near_truth || (e.begin < ds.anomaly_end + margin &&
                                ds.anomaly_begin - margin < e.end);
  }
  EXPECT_TRUE(near_truth);
  // Event coordinates are valid and ordered.
  for (const AlarmEvent& e : all_events) {
    EXPECT_LE(0, e.begin);
    EXPECT_LT(e.begin, e.end);
    EXPECT_LE(e.end, stream.total_points());
  }
  // The global timeline agrees with the reported events.
  int64_t timeline_alarms = 0;
  for (int v : stream.alarms()) timeline_alarms += v;
  EXPECT_GT(timeline_alarms, 0);
}

TEST(StreamingTest, AlarmTimelineMatchesTotalPoints) {
  const data::UcrDataset ds = SmallDataset(64);
  TriadDetector detector(TinyConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());
  StreamingTriad stream(&detector);
  ASSERT_TRUE(stream.Append(ds.test).ok());
  EXPECT_EQ(stream.alarms().size(), ds.test.size());
}

TEST(StreamingTest, UnfittedDetectorFailsGracefully) {
  // An unfitted detector used to trip a TRIAD_CHECK in the constructor;
  // now the first scoring pass surfaces FailedPrecondition instead.
  TriadDetector detector(TinyConfig());
  StreamingTriad stream(&detector);
  auto events = stream.Append(std::vector<double>(64, 0.5));
  ASSERT_FALSE(events.ok());
  EXPECT_EQ(events.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StreamingTest, CorruptedBurstBecomesTimelineGapNotAnError) {
  const data::UcrDataset ds = SmallDataset(66);
  TriadDetector detector(TinyConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());
  // Two windows per buffer so the 320-point feed yields several passes.
  StreamingOptions options;
  options.buffer_length = 2 * detector.window_length();
  StreamingTriad stream(&detector, options);

  // Clean lead-in, then a burst so corrupted every pass over it rejects
  // (a 40-NaN gap is beyond max_interpolate_gap), then clean tail.
  std::vector<double> feed = ds.test;
  ASSERT_GT(static_cast<int64_t>(feed.size()), stream.buffer_length() + 90);
  const int64_t burst_begin = stream.buffer_length() + 10;
  for (int64_t i = burst_begin; i < burst_begin + 40; ++i) {
    feed[static_cast<size_t>(i)] = std::numeric_limits<double>::quiet_NaN();
  }

  auto events = stream.Append(feed);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_GT(stream.failed_passes(), 0);
  ASSERT_FALSE(stream.gaps().empty());
  // Gaps cover the corrupted burst, are ordered, merged and in range.
  bool covers_burst = false;
  for (const TimelineGap& g : stream.gaps()) {
    EXPECT_LE(0, g.begin);
    EXPECT_LT(g.begin, g.end);
    EXPECT_LE(g.end, stream.total_points());
    covers_burst = covers_burst ||
                   (g.begin <= burst_begin && burst_begin + 40 <= g.end);
  }
  EXPECT_TRUE(covers_burst);
  for (size_t i = 1; i < stream.gaps().size(); ++i) {
    EXPECT_GT(stream.gaps()[i].begin, stream.gaps()[i - 1].end);
  }
  // The clean lead-in was still scored before the corruption arrived.
  EXPECT_GT(stream.passes(), 0);
  EXPECT_EQ(stream.total_points(), static_cast<int64_t>(feed.size()));
  EXPECT_EQ(stream.alarms().size(), feed.size());
}

// Property: the global alarm timeline is a function of the points fed, not
// of how they were chunked — every seeded random chunking must reproduce
// the one-shot timeline, including when a corrupted burst forces
// sanitize-rejected passes along the way.
TEST(StreamingTest, TimelineInvariantUnderArbitraryChunking) {
  const data::UcrDataset ds = SmallDataset(67);
  TriadDetector detector(TinyConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());

  std::vector<double> feed = ds.test;
  // Inject a rejectable burst early so chunking equivalence also covers the
  // failed-pass/gap recovery path while later passes still score cleanly.
  for (int64_t i = 60; i < 100; ++i) {
    feed[static_cast<size_t>(i)] = std::numeric_limits<double>::quiet_NaN();
  }

  StreamingOptions stream_options;
  stream_options.buffer_length = 2 * detector.window_length();
  auto run_chunked = [&](uint64_t seed) {
    StreamingTriad stream(&detector, stream_options);
    if (seed == 0) {
      EXPECT_TRUE(stream.Append(feed).ok());
    } else {
      Rng rng(seed);
      size_t off = 0;
      while (off < feed.size()) {
        const size_t len = std::min<size_t>(
            feed.size() - off,
            static_cast<size_t>(rng.UniformInt(1, 61)));
        auto events = stream.Append(std::vector<double>(
            feed.begin() + static_cast<long>(off),
            feed.begin() + static_cast<long>(off + len)));
        EXPECT_TRUE(events.ok()) << events.status().ToString();
        off += len;
      }
    }
    return stream;
  };

  const StreamingTriad one_shot = run_chunked(0);
  // The fixture must exercise both sides of the ladder or the property is
  // vacuous: some passes reject (gap) and some score cleanly.
  ASSERT_GT(one_shot.failed_passes(), 0);
  ASSERT_GT(one_shot.passes(), 0);
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    const StreamingTriad chunked = run_chunked(seed);
    EXPECT_EQ(chunked.alarms(), one_shot.alarms()) << "seed=" << seed;
    EXPECT_EQ(chunked.passes(), one_shot.passes()) << "seed=" << seed;
    EXPECT_EQ(chunked.failed_passes(), one_shot.failed_passes())
        << "seed=" << seed;
    ASSERT_EQ(chunked.gaps().size(), one_shot.gaps().size())
        << "seed=" << seed;
    for (size_t i = 0; i < chunked.gaps().size(); ++i) {
      EXPECT_EQ(chunked.gaps()[i].begin, one_shot.gaps()[i].begin);
      EXPECT_EQ(chunked.gaps()[i].end, one_shot.gaps()[i].end);
    }
  }
}

TEST(StreamingTest, RollingStatsRingTracksWindowExactly) {
  RollingStatsRing ring(4);
  // Fill, then slide past capacity with a NaN in the mix.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {1.0, 2.0, 3.0, 4.0, nan, 6.0}) ring.Push(v);
  // Window is now {3, 4, NaN, 6}.
  EXPECT_EQ(ring.size(), 4);
  EXPECT_EQ(ring.nonfinite_count(), 1);
  EXPECT_DOUBLE_EQ(ring.nonfinite_fraction(), 0.25);
  EXPECT_NEAR(ring.mean(), (3.0 + 4.0 + 6.0) / 3.0, 1e-9);
  const double mu = (3.0 + 4.0 + 6.0) / 3.0;
  const double var = (9.0 + 16.0 + 36.0) / 3.0 - mu * mu;
  EXPECT_NEAR(ring.stddev(), std::sqrt(var), 1e-9);
  // Slide until the NaN leaves the window: {6, 7, 8, 9}.
  for (double v : {7.0, 8.0, 9.0}) ring.Push(v);
  EXPECT_EQ(ring.nonfinite_count(), 0);
  EXPECT_NEAR(ring.mean(), 7.5, 1e-9);
}

TEST(StreamingTest, IncrementalAccessorReflectsOptions) {
  const data::UcrDataset ds = SmallDataset(68);
  TriadDetector detector(TinyConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());
  // On by default; the option alone turns it off.
  StreamingTriad on(&detector);
  EXPECT_TRUE(on.incremental());
  StreamingOptions off_options;
  off_options.incremental = false;
  StreamingTriad off(&detector, off_options);
  EXPECT_FALSE(off.incremental());
}

// Tentpole golden property (ARCHITECTURE.md §8): the memoized incremental
// path and the full-recompute path produce bit-identical streaming
// outcomes — alarms, pass counts, failed passes and gaps — on a feed that
// exercises clean passes, a sanitize-rejected burst (memo bypass plus the
// guaranteed-rejection short-circuit) and recovery. Checked on both SIMD
// tiers, since the memo caches kernel outputs.
TEST(StreamingTest, IncrementalMatchesFullRecomputeBitwise) {
  const data::UcrDataset ds = SmallDataset(69);
  TriadDetector detector(TinyConfig());
  ASSERT_TRUE(detector.Fit(ds.train).ok());

  std::vector<double> feed = ds.test;
  for (int64_t i = 70; i < 110; ++i) {
    feed[static_cast<size_t>(i)] = std::numeric_limits<double>::quiet_NaN();
  }

  StreamingOptions base;
  base.buffer_length = 2 * detector.window_length();
  const auto run = [&](bool incremental, int64_t chunk) {
    StreamingOptions options = base;
    options.incremental = incremental;
    StreamingTriad stream(&detector, options);
    for (size_t off = 0; off < feed.size();
         off += static_cast<size_t>(chunk)) {
      const size_t hi = std::min(feed.size(), off + static_cast<size_t>(chunk));
      auto events = stream.Append(std::vector<double>(
          feed.begin() + static_cast<long>(off),
          feed.begin() + static_cast<long>(hi)));
      EXPECT_TRUE(events.ok()) << events.status().ToString();
    }
    return stream;
  };

  for (simd::Level level :
       {simd::Level::kScalar, simd::HighestSupportedLevel()}) {
    simd::ScopedForceLevel force(level);
    const StreamingTriad full = run(/*incremental=*/false, /*chunk=*/23);
    // The fixture must exercise both rungs or the property is weak.
    ASSERT_GT(full.passes(), 0);
    ASSERT_GT(full.failed_passes(), 0);
    for (int64_t chunk : {int64_t{1}, int64_t{23}, int64_t{256}}) {
      const StreamingTriad inc = run(/*incremental=*/true, chunk);
      EXPECT_EQ(inc.alarms(), full.alarms()) << "chunk=" << chunk;
      EXPECT_EQ(inc.passes(), full.passes()) << "chunk=" << chunk;
      EXPECT_EQ(inc.failed_passes(), full.failed_passes())
          << "chunk=" << chunk;
      ASSERT_EQ(inc.gaps().size(), full.gaps().size()) << "chunk=" << chunk;
      for (size_t i = 0; i < inc.gaps().size(); ++i) {
        EXPECT_EQ(inc.gaps()[i].begin, full.gaps()[i].begin);
        EXPECT_EQ(inc.gaps()[i].end, full.gaps()[i].end);
      }
    }
  }
}

}  // namespace
}  // namespace triad::core
