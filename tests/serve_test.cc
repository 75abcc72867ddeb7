#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/streaming.h"
#include "data/ucr_generator.h"
#include "serve/fleet_server.h"
#include "serve/model_registry.h"

namespace triad::serve {
namespace {

core::TriadConfig TinyConfig() {
  core::TriadConfig config;
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

// One fitted detector shared by every test (and, via shared_ptr, by every
// tenant) — the fleet's whole point is many tenants over few models.
std::shared_ptr<const core::TriadDetector> SharedDetector() {
  static const std::shared_ptr<const core::TriadDetector> detector = [] {
    auto d = std::make_shared<core::TriadDetector>(TinyConfig());
    const data::UcrDataset ds = SmallDataset(61);
    TRIAD_CHECK(d->Fit(ds.train).ok());
    return std::shared_ptr<const core::TriadDetector>(d);
  }();
  return detector;
}

// Feeds `feed` to a fresh standalone StreamingTriad and returns it —
// the reference a fleet tenant must match bit-for-bit.
struct StandaloneRun {
  std::vector<int> alarms;
  std::vector<core::TimelineGap> gaps;
  int64_t passes = 0;
  int64_t failed_passes = 0;
};

StandaloneRun RunStandalone(const core::TriadDetector& detector,
                            const std::vector<double>& feed,
                            const core::StreamingOptions& options) {
  core::StreamingTriad stream(&detector, options);
  auto events = stream.Append(feed);
  TRIAD_CHECK(events.ok());
  StandaloneRun run;
  run.alarms = stream.alarms();
  run.gaps = stream.gaps();
  run.passes = stream.passes();
  run.failed_passes = stream.failed_passes();
  return run;
}

void ExpectMatchesStandalone(const TenantSnapshot& snap,
                             const StandaloneRun& ref,
                             const std::string& label) {
  EXPECT_EQ(snap.passes, ref.passes) << label;
  EXPECT_EQ(snap.failed_passes, ref.failed_passes) << label;
  ASSERT_EQ(snap.alarms.size(), ref.alarms.size()) << label;
  for (size_t i = 0; i < ref.alarms.size(); ++i) {
    ASSERT_EQ(snap.alarms[i], ref.alarms[i]) << label << " alarm@" << i;
  }
  ASSERT_EQ(snap.gaps.size(), ref.gaps.size()) << label;
  for (size_t i = 0; i < ref.gaps.size(); ++i) {
    EXPECT_EQ(snap.gaps[i].begin, ref.gaps[i].begin) << label;
    EXPECT_EQ(snap.gaps[i].end, ref.gaps[i].end) << label;
  }
}

TEST(FleetServerTest, AddTenantValidatesItsArguments) {
  FleetServer fleet;
  EXPECT_EQ(fleet.AddTenant(nullptr).status().code(),
            StatusCode::kInvalidArgument);
  auto unfitted = std::make_shared<const core::TriadDetector>(TinyConfig());
  EXPECT_EQ(fleet.AddTenant(unfitted).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fleet.RemoveTenant(99).code(), StatusCode::kNotFound);
  EXPECT_EQ(fleet.Ingest(99, {1.0}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fleet.Tenant(99).status().code(), StatusCode::kNotFound);
}

TEST(FleetServerTest, FleetFullIsOutOfRange) {
  FleetOptions options;
  options.max_tenants = 2;
  FleetServer fleet(options);
  ASSERT_TRUE(fleet.AddTenant(SharedDetector()).ok());
  ASSERT_TRUE(fleet.AddTenant(SharedDetector()).ok());
  EXPECT_EQ(fleet.AddTenant(SharedDetector()).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(fleet.stats().tenants, 2);
}

TEST(ModelRegistryTest, CheckpointLoadsOnceThenShares) {
  const std::string path = "/tmp/triad_serve_registry_test.ckpt";
  ASSERT_TRUE(SharedDetector()->Save(path).ok());
  ModelRegistry registry;
  auto first = registry.LoadCheckpoint(path);
  ASSERT_TRUE(first.ok());
  auto second = registry.LoadCheckpoint(path);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same instance, not a reload
  EXPECT_EQ(registry.size(), 1);
  EXPECT_EQ(registry.Get("missing").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(registry.LoadCheckpoint("/tmp/definitely_missing.ckpt").ok());
}

TEST(FleetServerTest, WarmStartFromCheckpointMatchesStandalone) {
  const std::string path = "/tmp/triad_serve_warmstart_test.ckpt";
  ASSERT_TRUE(SharedDetector()->Save(path).ok());
  ModelRegistry registry;
  FleetServer fleet;
  auto id = fleet.AddTenantFromCheckpoint(&registry, path);
  ASSERT_TRUE(id.ok());

  const std::vector<double> feed = SmallDataset(71).test;
  ASSERT_TRUE(fleet.Ingest(*id, feed).ok());
  ASSERT_TRUE(fleet.Drain().ok());
  auto snap = fleet.Tenant(*id);
  ASSERT_TRUE(snap.ok());

  auto loaded = registry.LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  const StandaloneRun ref =
      RunStandalone(**loaded, feed, core::StreamingOptions());
  ExpectMatchesStandalone(*snap, ref, "warm-start tenant");
  EXPECT_GT(snap->passes, 0);
}

// The fleet contract: every tenant in a 64-tenant fleet — interleaved
// ingest, batched drains — produces the timeline its detector+series would
// produce standalone, bit-identically, on both SIMD tiers and at 1 vs N
// pool threads. Odd tenants run 6-window buffers, so every drain batches
// two buffer shapes; tenant 0's feed runs three chunks past everyone
// else's, so the last drains score it alone, on the draining thread, with
// its pass spread across the pool.
TEST(FleetServerTest, TenantIsolationBitIdenticalAcrossTiersAndThreads) {
  constexpr int kTenants = 64;
  constexpr size_t kChunk = 37;
  constexpr size_t kTrainTail = 200;  // lets 6-window buffers fill too
  auto detector = SharedDetector();
  std::vector<std::vector<double>> feeds;
  std::vector<core::StreamingOptions> options(kTenants);
  feeds.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    const data::UcrDataset ds = SmallDataset(100 + static_cast<uint64_t>(t));
    const size_t tail = kTrainTail + (t == 0 ? 3 * kChunk : 0);
    std::vector<double> feed(ds.train.end() - static_cast<long>(tail),
                             ds.train.end());
    feed.insert(feed.end(), ds.test.begin(), ds.test.end());
    feeds.push_back(std::move(feed));
    if (t % 2 == 1) options[t].buffer_length = 6 * detector->window_length();
  }

  metrics::ScopedEnable metrics_on(true);
  metrics::Counter* pool_batches =
      metrics::Registry::Global().counter("parallel.batches");
  for (simd::Level level :
       {simd::Level::kScalar, simd::HighestSupportedLevel()}) {
    simd::ScopedForceLevel force(level);
    // The standalone reference for this tier (thread count cannot matter:
    // the decomposition is fixed — the fleet runs below re-verify that).
    std::vector<StandaloneRun> refs;
    refs.reserve(kTenants);
    for (int t = 0; t < kTenants; ++t) {
      refs.push_back(RunStandalone(*detector, feeds[t], options[t]));
      ASSERT_GT(refs.back().passes, 0);
    }

    for (int64_t threads : {int64_t{1}, int64_t{4}}) {
      ThreadPool pool(threads);
      ScopedDefaultPool scoped(&pool);
      FleetServer fleet;
      std::vector<int64_t> ids;
      for (int t = 0; t < kTenants; ++t) {
        TenantOptions tenant_options;
        tenant_options.streaming = options[t];
        auto id = fleet.AddTenant(detector, tenant_options);
        ASSERT_TRUE(id.ok());
        ids.push_back(*id);
      }
      // Interleave: round-robin odd-sized chunks with periodic drains so
      // tenants batch together mid-stream rather than one-shot.
      bool remaining = true;
      size_t offset = 0;
      bool others_ready = false;  // tenants 1.. ingested since a drain
      uint64_t lone_passes = 0;
      uint64_t lone_pool_batches = 0;
      while (remaining) {
        remaining = false;
        for (int t = 0; t < kTenants; ++t) {
          const auto& feed = feeds[static_cast<size_t>(t)];
          if (offset >= feed.size()) continue;
          const size_t hi = std::min(feed.size(), offset + kChunk);
          auto status = fleet.Ingest(
              ids[static_cast<size_t>(t)],
              std::vector<double>(feed.begin() + static_cast<long>(offset),
                                  feed.begin() + static_cast<long>(hi)));
          ASSERT_TRUE(status.ok());
          ASSERT_EQ(*status, IngestStatus::kAccepted);
          remaining = true;
          others_ready = others_ready || t > 0;
        }
        offset += kChunk;
        if ((offset / kChunk) % 2 == 0) {
          const FleetStats before = fleet.stats();
          const uint64_t batches_before = pool_batches->value();
          ASSERT_TRUE(fleet.Drain().ok());
          const FleetStats after = fleet.stats();
          if (!others_ready) {
            lone_passes += after.passes - before.passes;
            lone_pool_batches += pool_batches->value() - batches_before;
            EXPECT_EQ(after.batched_detects, before.batched_detects);
          }
          others_ready = false;
        }
      }
      ASSERT_TRUE(fleet.Drain().ok());
      EXPECT_EQ(fleet.stats().queue_chunks, 0);

      for (int t = 0; t < kTenants; ++t) {
        auto snap = fleet.Tenant(ids[static_cast<size_t>(t)]);
        ASSERT_TRUE(snap.ok());
        ExpectMatchesStandalone(
            *snap, refs[static_cast<size_t>(t)],
            "tier=" + std::string(simd::LevelName(level)) +
                " threads=" + std::to_string(threads) +
                " tenant=" + std::to_string(t));
      }
      // The drains scored many tenants at once, and then tenant 0 alone.
      EXPECT_GT(fleet.stats().batched_detects, 0u);
      EXPECT_GT(lone_passes, 0u);
      // Alone, tenant 0's pass fans its own stages out over the lanes.
      if (threads > 1) {
        EXPECT_GT(lone_pool_batches, 0u);
      }
    }
  }
}

// ISSUE satellite 4 regression: two streams with identical prefixes but
// divergent suffixes must never share memo entries. Before stream-uid
// binding, DetectMemo's global-coordinate keys aliased across streams —
// a shared memo would have served tenant A's cached suffix windows to
// tenant B. Each tenant matching its own standalone run proves isolation.
TEST(FleetServerTest, IdenticalPrefixDivergentSuffixTenantsStayIsolated) {
  auto detector = SharedDetector();
  const std::vector<double> base = SmallDataset(81).test;
  const size_t half = base.size() / 2;
  std::vector<double> feed_a = base;
  std::vector<double> feed_b = base;
  for (size_t i = half; i < feed_b.size(); ++i) {
    feed_b[i] = -feed_b[i] + 3.0;  // divergent suffix, same prefix
  }

  FleetServer fleet;
  auto a = fleet.AddTenant(detector);
  auto b = fleet.AddTenant(detector);
  ASSERT_TRUE(a.ok() && b.ok());
  // Interleave in lockstep so the shared prefix is in flight concurrently.
  const size_t kChunk = 23;
  for (size_t off = 0; off < feed_a.size(); off += kChunk) {
    const size_t hi = std::min(feed_a.size(), off + kChunk);
    ASSERT_TRUE(fleet
                    .Ingest(*a, std::vector<double>(
                                    feed_a.begin() + static_cast<long>(off),
                                    feed_a.begin() + static_cast<long>(hi)))
                    .ok());
    ASSERT_TRUE(fleet
                    .Ingest(*b, std::vector<double>(
                                    feed_b.begin() + static_cast<long>(off),
                                    feed_b.begin() + static_cast<long>(hi)))
                    .ok());
    ASSERT_TRUE(fleet.Drain().ok());
  }
  auto snap_a = fleet.Tenant(*a);
  auto snap_b = fleet.Tenant(*b);
  ASSERT_TRUE(snap_a.ok() && snap_b.ok());
  EXPECT_NE(snap_a->stream_uid, snap_b->stream_uid);
  EXPECT_NE(snap_a->stream_uid, 0u);
  ExpectMatchesStandalone(
      *snap_a, RunStandalone(*detector, feed_a, core::StreamingOptions()),
      "prefix-sharing tenant A");
  ExpectMatchesStandalone(
      *snap_b, RunStandalone(*detector, feed_b, core::StreamingOptions()),
      "prefix-sharing tenant B");
}

TEST(DetectMemoDeathTest, CrossStreamRebindAborts) {
  core::DetectMemo memo;
  memo.BindStream(7);
  memo.BindStream(7);  // same stream: fine
  EXPECT_DEATH(memo.BindStream(9), "cross-stream memo reuse");
  core::DetectMemo unbound;
  EXPECT_DEATH(unbound.BindStream(0), "unbound sentinel");
}

TEST(FleetServerTest, StreamUidsAreUniqueAcrossTenants) {
  auto detector = SharedDetector();
  FleetServer fleet;
  std::vector<uint64_t> uids;
  for (int i = 0; i < 8; ++i) {
    auto id = fleet.AddTenant(detector);
    ASSERT_TRUE(id.ok());
    auto snap = fleet.Tenant(*id);
    ASSERT_TRUE(snap.ok());
    EXPECT_NE(snap->stream_uid, 0u);
    for (uint64_t seen : uids) EXPECT_NE(snap->stream_uid, seen);
    uids.push_back(snap->stream_uid);
  }
}

TEST(FleetServerTest, QosLadderRejectsDirtyTenantAndLetsItHeal) {
  auto detector = SharedDetector();
  FleetOptions options;
  options.qos_window = 4;
  options.qos_min_passes = 2;
  options.probation_interval = 2;
  FleetServer fleet(options);
  auto dirty = fleet.AddTenant(detector);
  auto clean = fleet.AddTenant(detector);
  ASSERT_TRUE(dirty.ok() && clean.ok());

  core::StreamingTriad probe(detector.get());
  const int64_t buffer = probe.buffer_length();
  const int64_t hop = probe.hop();
  const std::vector<double> nan_chunk(
      static_cast<size_t>(hop), std::numeric_limits<double>::quiet_NaN());
  const std::vector<double> clean_feed = SmallDataset(91).test;

  // Fill the dirty buffer with NaNs, then keep the failures coming until
  // the ladder reaches the rejecting rung.
  ASSERT_TRUE(fleet
                  .Ingest(*dirty, std::vector<double>(
                                      static_cast<size_t>(buffer),
                                      std::numeric_limits<double>::quiet_NaN()))
                  .ok());
  ASSERT_TRUE(fleet.Drain().ok());
  int degraded_seen = 0;
  bool saw_reject = false;
  for (int i = 0; i < 32 && !saw_reject; ++i) {
    auto status = fleet.Ingest(*dirty, nan_chunk);
    ASSERT_TRUE(status.ok());
    if (*status == IngestStatus::kDegraded) ++degraded_seen;
    if (*status == IngestStatus::kRejected) saw_reject = true;
    ASSERT_TRUE(fleet.Drain().ok());
  }
  EXPECT_TRUE(saw_reject);
  EXPECT_GT(degraded_seen, 0);
  auto dirty_snap = fleet.Tenant(*dirty);
  ASSERT_TRUE(dirty_snap.ok());
  EXPECT_EQ(dirty_snap->rung, QosRung::kRejecting);
  EXPECT_GT(dirty_snap->failed_passes, 0);

  // The clean tenant never felt it: all its chunks accepted, timeline
  // identical to standalone.
  auto status = fleet.Ingest(*clean, clean_feed);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status, IngestStatus::kAccepted);
  ASSERT_TRUE(fleet.Drain().ok());
  auto clean_snap = fleet.Tenant(*clean);
  ASSERT_TRUE(clean_snap.ok());
  EXPECT_EQ(clean_snap->rung, QosRung::kHealthy);
  ExpectMatchesStandalone(
      *clean_snap,
      RunStandalone(*detector, clean_feed, core::StreamingOptions()),
      "clean tenant next to dirty tenant");

  // Probation: clean data eventually climbs the dirty tenant back down.
  bool healed = false;
  for (int i = 0; i < 256 && !healed; ++i) {
    const size_t off = (static_cast<size_t>(i) * static_cast<size_t>(hop)) %
                       (clean_feed.size() - static_cast<size_t>(hop));
    auto s = fleet.Ingest(
        *dirty, std::vector<double>(
                    clean_feed.begin() + static_cast<long>(off),
                    clean_feed.begin() + static_cast<long>(off + hop)));
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(fleet.Drain().ok());
    auto snap = fleet.Tenant(*dirty);
    ASSERT_TRUE(snap.ok());
    healed = snap->rung == QosRung::kHealthy;
  }
  EXPECT_TRUE(healed) << "rejecting tenant never climbed back down";
}

TEST(FleetServerTest, BackpressureBoundsBothBudgets) {
  auto detector = SharedDetector();
  core::StreamingTriad probe(detector.get());
  // Per-tenant budget: 2 chunks of buffer_length points. The ladder is
  // disabled (thresholds > 1) — this test is about queue bounds only, and
  // the constant chunks below would otherwise fail sanitize and degrade.
  FleetOptions options;
  options.max_pending_points_per_tenant = 2 * probe.buffer_length();
  options.degrade_failure_fraction = 2.0;
  options.reject_failure_fraction = 3.0;
  FleetServer fleet(options);
  auto id = fleet.AddTenant(detector);
  ASSERT_TRUE(id.ok());
  const std::vector<double> chunk(static_cast<size_t>(probe.buffer_length()),
                                  0.5);
  EXPECT_EQ(*fleet.Ingest(*id, chunk), IngestStatus::kAccepted);
  EXPECT_EQ(*fleet.Ingest(*id, chunk), IngestStatus::kAccepted);
  EXPECT_EQ(*fleet.Ingest(*id, chunk), IngestStatus::kRejected);
  ASSERT_TRUE(fleet.Drain().ok());
  EXPECT_EQ(*fleet.Ingest(*id, chunk), IngestStatus::kAccepted);

  // Fleet budget: 2 chunks total across tenants.
  FleetOptions tight;
  tight.max_queue_chunks = 2;
  FleetServer small(tight);
  auto a = small.AddTenant(detector);
  auto b = small.AddTenant(detector);
  auto c = small.AddTenant(detector);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*small.Ingest(*a, {1.0}), IngestStatus::kAccepted);
  EXPECT_EQ(*small.Ingest(*b, {1.0}), IngestStatus::kAccepted);
  EXPECT_EQ(*small.Ingest(*c, {1.0}), IngestStatus::kRejected);
  ASSERT_TRUE(small.Drain().ok());
  EXPECT_EQ(*small.Ingest(*c, {1.0}), IngestStatus::kAccepted);
}

TEST(FleetServerTest, RemoveTenantReturnsItsQueueBudget) {
  auto detector = SharedDetector();
  FleetServer fleet;
  auto id = fleet.AddTenant(detector);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fleet.Ingest(*id, {1.0, 2.0, 3.0}).ok());
  ASSERT_TRUE(fleet.Ingest(*id, {4.0, 5.0}).ok());
  EXPECT_EQ(fleet.stats().queue_chunks, 2);
  EXPECT_EQ(fleet.stats().queue_points, 5);
  ASSERT_TRUE(fleet.RemoveTenant(*id).ok());
  EXPECT_EQ(fleet.stats().queue_chunks, 0);
  EXPECT_EQ(fleet.stats().queue_points, 0);
  EXPECT_EQ(fleet.stats().tenants, 0);
}

// ISSUE satellite 3, property-style: for an arbitrary seeded arrival
// pattern — random tenants, random chunk sizes (empty and NaN-laced
// included), drains, removals, tight queue bounds — the admission ledger
// balances exactly: submitted == accepted + degraded + rejected, both in
// FleetStats and in the exported metrics counters, and the queue stays
// within its configured bound.
TEST(FleetServerPropertyTest, AdmissionLedgerBalancesForArbitraryArrivals) {
  metrics::ScopedEnable metrics_on(true);
  metrics::Registry::Global().ResetAll();
  auto detector = SharedDetector();
  auto& registry = metrics::Registry::Global();
  const uint64_t submitted0 = registry.counter("serve.submitted")->value();
  const uint64_t accepted0 = registry.counter("serve.accepted")->value();
  const uint64_t degraded0 = registry.counter("serve.degraded")->value();
  const uint64_t rejected0 = registry.counter("serve.rejected")->value();

  FleetOptions options;
  options.max_queue_chunks = 16;
  options.max_pending_points_per_tenant = 256;
  options.qos_window = 4;
  options.qos_min_passes = 2;
  options.probation_interval = 2;
  FleetServer fleet(options);

  Rng rng(20260808);
  std::vector<int64_t> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = fleet.AddTenant(detector);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  uint64_t accepted = 0, degraded = 0, rejected = 0, submitted = 0;
  const data::UcrDataset ds = SmallDataset(51);
  for (int step = 0; step < 600; ++step) {
    const double op = rng.Uniform();
    if (op < 0.70) {
      const int64_t id = ids[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
      const size_t n = static_cast<size_t>(rng.UniformInt(0, 47));  // 0=empty
      std::vector<double> chunk(n);
      for (size_t i = 0; i < n; ++i) {
        chunk[i] = rng.Uniform() < 0.05
                       ? std::numeric_limits<double>::quiet_NaN()
                       : ds.test[static_cast<size_t>(rng.UniformInt(
                             0, static_cast<int64_t>(ds.test.size()) - 1))];
      }
      auto status = fleet.Ingest(id, chunk);
      if (status.ok()) {
        ++submitted;
        switch (*status) {
          case IngestStatus::kAccepted: ++accepted; break;
          case IngestStatus::kDegraded: ++degraded; break;
          case IngestStatus::kRejected: ++rejected; break;
        }
      } else {
        EXPECT_EQ(status.status().code(), StatusCode::kNotFound);
      }
    } else if (op < 0.85) {
      ASSERT_TRUE(fleet.Drain().ok());
    } else if (op < 0.92 && ids.size() > 1) {
      const size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1));
      ASSERT_TRUE(fleet.RemoveTenant(ids[victim]).ok());
      ids.erase(ids.begin() + static_cast<long>(victim));
    } else {
      auto id = fleet.AddTenant(detector);
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    const FleetStats stats = fleet.stats();
    ASSERT_EQ(stats.submitted, submitted) << "step " << step;
    ASSERT_EQ(stats.accepted, accepted) << "step " << step;
    ASSERT_EQ(stats.degraded, degraded) << "step " << step;
    ASSERT_EQ(stats.rejected, rejected) << "step " << step;
    ASSERT_EQ(stats.submitted, stats.accepted + stats.degraded + stats.rejected)
        << "step " << step;
    ASSERT_GE(stats.queue_chunks, 0) << "step " << step;
    ASSERT_LE(stats.queue_chunks, options.max_queue_chunks) << "step " << step;
  }
  // Exported counters tell the same story as the authoritative ledger.
  EXPECT_EQ(registry.counter("serve.submitted")->value() - submitted0,
            submitted);
  EXPECT_EQ(registry.counter("serve.accepted")->value() - accepted0, accepted);
  EXPECT_EQ(registry.counter("serve.degraded")->value() - degraded0, degraded);
  EXPECT_EQ(registry.counter("serve.rejected")->value() - rejected0, rejected);
  ASSERT_TRUE(fleet.Drain().ok());
  const FleetStats final_stats = fleet.stats();
  EXPECT_EQ(final_stats.queue_chunks, 0);
  EXPECT_EQ(final_stats.queue_points, 0);
  EXPECT_GT(registry.histogram("streaming.pass_seconds")->count(), 0u);
}

}  // namespace
}  // namespace triad::serve
