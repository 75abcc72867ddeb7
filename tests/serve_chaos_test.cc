// Serve-layer chaos harness (ARCHITECTURE.md §10, tests/serve_chaos_test.cc
// in the fault taxonomy's own comments).
//
// Every ServeFault in src/testing/fault_injection.h is driven against a
// durable fleet and its recovery path, and every expected outcome is
// asserted per SIMD tier where the outcome involves scoring:
//
//   * kill-point sweep — a fleet killed after any prefix of WAL records
//     (at and inside record boundaries) recovers, via Recover(), an alarm
//     timeline bit-identical to a standalone run over exactly the chunks
//     that survived;
//   * torn snapshot / snapshot bit rot — full-WAL fallback, bit-identical;
//   * WAL interior bit rot — that tenant quarantined, everyone else serves;
//   * checkpoint bit rot — ModelRegistry quarantine, tenant quarantined;
//   * injected pass hang — the watchdog cancels it, the tenant degrades on
//     the ordinary QoS ladder, no other tenant stalls;
//   * transient append faults — retried with backoff, no timeline gap;
//   * admission allocation failure — chunk rejected with an exact ledger
//     and its WAL record rolled back (WAL-then-enqueue is atomic), so the
//     caller's retry never double-applies across a crash + Recover();
//   * one tenant throwing out of a batched drain group — absorbed per
//     tenant, the rest of the group drains normally;
//   * a failing or stalled snapshot writer lane — verdicts never change or
//     wait, a failed write is retried at the next drain, a stalled lane
//     writes only the newest state, and Checkpoint waits for pending
//     writes before its manifest.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/deadline.h"
#include "common/simd.h"
#include "core/streaming.h"
#include "data/ucr_generator.h"
#include "serve/durability.h"
#include "serve/fleet_server.h"
#include "serve/model_registry.h"
#include "testing/fault_injection.h"

namespace triad::serve {
namespace {

using triad::testing::FileSize;
using triad::testing::FlipBitInFile;
using triad::testing::TruncateFile;

core::TriadConfig TinyConfig() {
  core::TriadConfig config;
  config.depth = 2;
  config.hidden_dim = 8;
  config.epochs = 3;
  config.seed = 5;
  config.merlin_length_step = 4;
  return config;
}

// The first `points` points of a generated test series.
std::vector<double> TestSeries(uint64_t seed, size_t points) {
  data::UcrGeneratorOptions gen;
  gen.count = 1;
  gen.seed = seed;
  gen.min_period = 32;
  gen.max_period = 32;
  gen.min_train_periods = 14;
  gen.max_train_periods = 14;
  gen.min_test_periods = static_cast<int64_t>(points / 32 + 2);
  gen.max_test_periods = gen.min_test_periods;
  std::vector<double> series = data::MakeUcrArchive(gen)[0].test;
  series.resize(points);
  return series;
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

// Every durable tenant in this suite resolves its model through this
// checkpoint, so the live fleet, the recovered fleet and the standalone
// references all decode the same bytes.
const std::string& SharedCheckpointPath() {
  static const std::string path = [] {
    const std::string p = "/tmp/triad_chaos_model.ckpt";
    core::TriadDetector detector(TinyConfig());
    TRIAD_CHECK(detector.Fit(SmallDataset(61).train).ok());
    TRIAD_CHECK(detector.Save(p).ok());
    return p;
  }();
  return path;
}

std::shared_ptr<const core::TriadDetector> SharedDetector() {
  static const std::shared_ptr<const core::TriadDetector> detector = [] {
    ModelRegistry registry;
    auto loaded = registry.LoadCheckpoint(SharedCheckpointPath());
    TRIAD_CHECK(loaded.ok());
    return *loaded;
  }();
  return detector;
}

// A fresh (removed-if-present) durability root for one test case.
std::string ChaosDir(const std::string& name) {
  const std::string dir = "/tmp/triad_chaos_" + name;
  TRIAD_CHECK(std::system(("rm -rf " + dir).c_str()) == 0);
  return dir;
}

struct StandaloneRun {
  std::vector<int> alarms;
  std::vector<core::TimelineGap> gaps;
  int64_t passes = 0;
  int64_t failed_passes = 0;
};

StandaloneRun RunStandalone(const core::TriadDetector& detector,
                            const std::vector<double>& feed) {
  core::StreamingTriad stream(&detector, core::StreamingOptions());
  if (!feed.empty()) {
    TRIAD_CHECK(stream.Append(feed).ok());
  }
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

std::vector<double> Prefix(const std::vector<double>& feed, size_t n) {
  return std::vector<double>(feed.begin(),
                             feed.begin() + static_cast<long>(
                                                std::min(n, feed.size())));
}

std::vector<double> Slice(const std::vector<double>& feed, size_t begin,
                          size_t end) {
  return std::vector<double>(feed.begin() + static_cast<long>(begin),
                             feed.begin() + static_cast<long>(end));
}

// The streaming geometry every tenant of the shared detector gets.
struct Geometry {
  size_t buffer = 0;
  size_t hop = 0;
};

Geometry StreamGeometry() {
  core::StreamingTriad probe(SharedDetector().get());
  return {static_cast<size_t>(probe.buffer_length()),
          static_cast<size_t>(probe.hop())};
}

// A latch a before_snapshot_write hook waits on, modelling a disk that
// stalls until the test opens it. The wait gives up after `timeout` so a
// lane that should not be waited on fails the test instead of hanging it.
class DiskGate {
 public:
  // False when the wait timed out.
  bool Wait(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return open_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Spins until `counter` reaches `value` (or ~10 s pass); true if reached.
bool AwaitCount(const std::atomic<int64_t>& counter, int64_t value) {
  for (int i = 0; i < 10000 && counter.load() < value; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return counter.load() >= value;
}

// The tenant's snapshot on disk decodes to exactly its live state.
void ExpectSnapshotMatchesLive(const std::string& dir,
                               const TenantSnapshot& live,
                               uint64_t watermark, const std::string& label) {
  auto durable = ReadTenantSnapshot(dir, live.id);
  ASSERT_TRUE(durable.ok()) << label << ": " << durable.status().ToString();
  EXPECT_EQ(durable->chunks_applied_seq, watermark) << label;
  EXPECT_EQ(durable->stream.total_points, live.total_points) << label;
  EXPECT_EQ(durable->stream.passes, live.passes) << label;
  EXPECT_EQ(durable->stream.failed_passes, live.failed_passes) << label;
  EXPECT_EQ(durable->stream.alarms, live.alarms) << label;
  ASSERT_EQ(durable->stream.gaps.size(), live.gaps.size()) << label;
  for (size_t i = 0; i < live.gaps.size(); ++i) {
    EXPECT_EQ(durable->stream.gaps[i].begin, live.gaps[i].begin) << label;
    EXPECT_EQ(durable->stream.gaps[i].end, live.gaps[i].end) << label;
  }
  EXPECT_EQ(static_cast<QosRung>(durable->rung), live.rung) << label;
}

void IngestInChunks(FleetServer* fleet, int64_t id,
                    const std::vector<double>& feed, size_t chunk) {
  for (size_t off = 0; off < feed.size(); off += chunk) {
    const size_t hi = std::min(feed.size(), off + chunk);
    auto status = fleet->Ingest(
        id, std::vector<double>(feed.begin() + static_cast<long>(off),
                                feed.begin() + static_cast<long>(hi)));
    ASSERT_TRUE(status.ok());
    ASSERT_NE(*status, IngestStatus::kRejected);
  }
}

class ServeChaosTest : public ::testing::TestWithParam<simd::Level> {
 protected:
  void TearDown() override { ClearServeTestHooks(); }
};

std::vector<simd::Level> TiersUnderTest() {
  std::vector<simd::Level> tiers = {simd::Level::kScalar};
  const simd::Level best = simd::HighestSupportedLevel();
  if (best != simd::Level::kScalar) tiers.push_back(best);
  return tiers;
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, ServeChaosTest, ::testing::ValuesIn(TiersUnderTest()),
    [](const ::testing::TestParamInfo<simd::Level>& info) {
      return std::string(simd::LevelName(info.param));
    });

// ServeFault::kKillBetweenWalRecords + kTornWalTail: kill the fleet after
// every possible WAL prefix of one tenant — at record boundaries (a crash
// between appends) and mid-record (a torn tail) — and assert the recovered
// timeline is bit-identical to a standalone run over exactly the chunks
// whose records survived. The first recovery of a torn file must also
// truncate it back to the last intact boundary.
TEST_P(ServeChaosTest, KillPointSweepReplaysBitIdentically) {
  simd::ScopedForceLevel force(GetParam());
  const std::string dir =
      ChaosDir(std::string("killsweep_") + simd::LevelName(GetParam()));
  constexpr size_t kChunk = 32;
  constexpr int kTenants = 3;

  FleetOptions options;
  options.durability.dir = dir;
  std::vector<std::vector<double>> feeds;
  std::vector<int64_t> ids;
  {
    ModelRegistry registry;
    FleetServer fleet(options);
    for (int t = 0; t < kTenants; ++t) {
      auto id = fleet.AddTenantFromCheckpoint(&registry,
                                              SharedCheckpointPath());
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
      feeds.push_back(SmallDataset(200 + static_cast<uint64_t>(t)).test);
      IngestInChunks(&fleet, *id, feeds.back(), kChunk);
    }
    const size_t records = feeds[0].size() / kChunk;
    ASSERT_EQ(fleet.stats().wal_records,
              static_cast<uint64_t>(records * kTenants));
    // Killed here: no Drain, no snapshots — the WAL alone carries the fleet.
  }
  const size_t kRecords = feeds[0].size() / kChunk;  // 10 per tenant
  const std::string wal0 = TenantDir(dir, ids[0]) + "/wal";
  const int64_t wal_bytes = FileSize(wal0);
  ASSERT_GT(wal_bytes, 0);
  ASSERT_EQ(wal_bytes % static_cast<int64_t>(kRecords), 0);
  const int64_t rec = wal_bytes / static_cast<int64_t>(kRecords);

  const auto& detector = *SharedDetector();
  std::vector<StandaloneRun> full_refs;
  for (int t = 0; t < kTenants; ++t) {
    full_refs.push_back(RunStandalone(detector, feeds[static_cast<size_t>(t)]));
    ASSERT_GT(full_refs.back().passes, 0);
  }

  const auto recover_and_check = [&](size_t keep_records,
                                     int64_t expect_torn) {
    ModelRegistry registry;
    FleetServer recovered(options);
    auto report = recovered.Recover(&registry);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->tenants_recovered, kTenants);
    EXPECT_TRUE(report->quarantined.empty());
    EXPECT_EQ(report->torn_wal_tails, expect_torn);
    EXPECT_EQ(report->snapshot_fallbacks, 0);
    // Tenant 0 lost its suffix; the others replay in full.
    EXPECT_EQ(report->chunks_replayed,
              static_cast<int64_t>(keep_records + (kTenants - 1) * kRecords));
    EXPECT_EQ(report->points_replayed,
              static_cast<int64_t>(kChunk) * report->chunks_replayed);
    EXPECT_GE(report->recovery_seconds, 0.0);

    auto snap0 = recovered.Tenant(ids[0]);
    ASSERT_TRUE(snap0.ok());
    ExpectMatchesStandalone(
        *snap0,
        RunStandalone(detector, Prefix(feeds[0], keep_records * kChunk)),
        "kill@" + std::to_string(keep_records) + " records");
    for (int t = 1; t < kTenants; ++t) {
      auto snap = recovered.Tenant(ids[static_cast<size_t>(t)]);
      ASSERT_TRUE(snap.ok());
      ExpectMatchesStandalone(*snap, full_refs[static_cast<size_t>(t)],
                              "bystander tenant " + std::to_string(t));
    }
  };

  // The uninterrupted baseline first, then walk the kill point backwards
  // through every record of tenant 0's WAL.
  recover_and_check(kRecords, 0);
  for (size_t k = kRecords; k-- > 0;) {
    // Crash mid-append: keep k intact records plus half of the next one.
    ASSERT_TRUE(TruncateFile(wal0, static_cast<int64_t>(k) * rec + rec / 2));
    recover_and_check(k, 1);
    // Recovery must have truncated the torn tail away...
    EXPECT_EQ(FileSize(wal0), static_cast<int64_t>(k) * rec);
    // ...so the same kill point now reads as a clean record boundary.
    recover_and_check(k, 0);
  }
}

// Snapshots shorten replay without changing the timeline: a fleet that
// snapshotted (cadence + explicit Checkpoint) replays nothing at recovery,
// and chunks ingested after the last snapshot replay from the watermark.
TEST_P(ServeChaosTest, SnapshotWatermarkShortensReplayBitIdentically) {
  simd::ScopedForceLevel force(GetParam());
  const std::string dir =
      ChaosDir(std::string("watermark_") + simd::LevelName(GetParam()));
  constexpr size_t kChunk = 64;

  FleetOptions options;
  options.durability.dir = dir;
  options.durability.snapshot_every_passes = 1;
  const std::vector<double> feed = SmallDataset(210).test;
  const std::vector<double> extra = Prefix(feed, 2 * kChunk);
  int64_t id = 0;
  {
    ModelRegistry registry;
    FleetServer fleet(options);
    auto added = fleet.AddTenantFromCheckpoint(&registry,
                                               SharedCheckpointPath());
    ASSERT_TRUE(added.ok());
    id = *added;
    for (size_t off = 0; off < feed.size(); off += kChunk) {
      const size_t hi = std::min(feed.size(), off + kChunk);
      ASSERT_TRUE(fleet
                      .Ingest(id, std::vector<double>(
                                      feed.begin() + static_cast<long>(off),
                                      feed.begin() + static_cast<long>(hi)))
                      .ok());
      ASSERT_TRUE(fleet.Drain().ok());
    }
    ASSERT_TRUE(fleet.Checkpoint().ok());
    EXPECT_GT(fleet.stats().snapshots, 0u);
  }

  const auto& detector = *SharedDetector();
  {
    // Everything drained + checkpointed: the watermark covers the whole
    // WAL, so recovery restores the snapshot and replays nothing.
    ModelRegistry registry;
    FleetServer recovered(options);
    auto report = recovered.Recover(&registry);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->tenants_recovered, 1);
    EXPECT_EQ(report->chunks_replayed, 0);
    EXPECT_EQ(report->snapshot_fallbacks, 0);
    auto snap = recovered.Tenant(id);
    ASSERT_TRUE(snap.ok());
    ExpectMatchesStandalone(*snap, RunStandalone(detector, feed),
                            "snapshot-only recovery");
    // The recovered fleet keeps serving durably: ingest past the snapshot
    // and kill again without draining.
    IngestInChunks(&recovered, id, extra, kChunk);
  }
  {
    ModelRegistry registry;
    FleetServer recovered(options);
    auto report = recovered.Recover(&registry);
    ASSERT_TRUE(report.ok());
    // Only the post-snapshot tail replays.
    EXPECT_EQ(report->chunks_replayed, 2);
    EXPECT_EQ(report->points_replayed, static_cast<int64_t>(extra.size()));
    std::vector<double> resumed = feed;
    resumed.insert(resumed.end(), extra.begin(), extra.end());
    auto snap = recovered.Tenant(id);
    ASSERT_TRUE(snap.ok());
    ExpectMatchesStandalone(*snap, RunStandalone(detector, resumed),
                            "watermark-tail recovery");
  }
}

// ServeFault::kSnapshotBitFlip + kTornSnapshot: a snapshot that fails its
// checksum — flipped payload bit or torn write — falls back to replaying
// the whole WAL from an empty stream, bit-identically (the WAL is never
// truncated at snapshot time precisely so this fallback exists).
TEST_P(ServeChaosTest, CorruptSnapshotFallsBackToFullWalReplay) {
  simd::ScopedForceLevel force(GetParam());
  const std::string dir =
      ChaosDir(std::string("snaprot_") + simd::LevelName(GetParam()));
  constexpr size_t kChunk = 64;
  // [magic4][u32 version][u32 crc][u64 len] — flips land in the payload.
  constexpr int64_t kBlobHeader = 20;

  FleetOptions options;
  options.durability.dir = dir;
  std::vector<std::vector<double>> feeds = {SmallDataset(220).test,
                                            SmallDataset(221).test};
  std::vector<int64_t> ids;
  {
    ModelRegistry registry;
    FleetServer fleet(options);
    for (const auto& feed : feeds) {
      auto id = fleet.AddTenantFromCheckpoint(&registry,
                                              SharedCheckpointPath());
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
      IngestInChunks(&fleet, *id, feed, kChunk);
    }
    ASSERT_TRUE(fleet.Drain().ok());
    ASSERT_TRUE(fleet.Checkpoint().ok());
  }
  const std::string snap0 = TenantDir(dir, ids[0]) + "/snapshot";
  const std::string snap1 = TenantDir(dir, ids[1]) + "/snapshot";
  ASSERT_GT(FileSize(snap0), kBlobHeader);
  ASSERT_TRUE(FlipBitInFile(snap0, /*seed=*/7, kBlobHeader));
  ASSERT_TRUE(TruncateFile(snap1, FileSize(snap1) / 2));

  ModelRegistry registry;
  FleetServer recovered(options);
  auto report = recovered.Recover(&registry);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tenants_recovered, 2);
  EXPECT_EQ(report->snapshot_fallbacks, 2);
  EXPECT_TRUE(report->quarantined.empty());
  EXPECT_GT(report->chunks_replayed, 0);
  const auto& detector = *SharedDetector();
  for (size_t t = 0; t < ids.size(); ++t) {
    auto snap = recovered.Tenant(ids[t]);
    ASSERT_TRUE(snap.ok());
    ExpectMatchesStandalone(*snap, RunStandalone(detector, feeds[t]),
                            "snapshot-fallback tenant " + std::to_string(t));
  }
}

// ServeFault::kWalBitFlip: interior WAL corruption is bit rot, not a crash
// artifact — the tenant is quarantined (never half-recovered) while every
// other tenant recovers and keeps serving.
TEST_P(ServeChaosTest, WalInteriorCorruptionQuarantinesOnlyThatTenant) {
  simd::ScopedForceLevel force(GetParam());
  const std::string dir =
      ChaosDir(std::string("walrot_") + simd::LevelName(GetParam()));

  FleetOptions options;
  options.durability.dir = dir;
  const std::vector<double> victim_feed = Prefix(SmallDataset(230).test, 32);
  const std::vector<double> healthy_feed = SmallDataset(231).test;
  int64_t victim = 0, healthy = 0;
  {
    ModelRegistry registry;
    FleetServer fleet(options);
    auto a = fleet.AddTenantFromCheckpoint(&registry, SharedCheckpointPath());
    auto b = fleet.AddTenantFromCheckpoint(&registry, SharedCheckpointPath());
    ASSERT_TRUE(a.ok() && b.ok());
    victim = *a;
    healthy = *b;
    // The victim's WAL holds exactly one record, so a flip past the 8-byte
    // frame header always lands in that record's payload/CRC — a complete
    // record that fails its checksum, i.e. interior corruption, never a
    // torn tail.
    ASSERT_TRUE(fleet.Ingest(victim, victim_feed).ok());
    IngestInChunks(&fleet, healthy, healthy_feed, 64);
  }
  ASSERT_TRUE(FlipBitInFile(TenantDir(dir, victim) + "/wal", /*seed=*/11,
                            /*min_offset=*/8));

  ModelRegistry registry;
  FleetServer recovered(options);
  auto report = recovered.Recover(&registry);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tenants_recovered, 1);
  ASSERT_EQ(report->quarantined.size(), 1u);
  EXPECT_EQ(report->quarantined[0].id, victim);
  EXPECT_EQ(report->quarantined[0].reason.code(), StatusCode::kDataLoss);
  // The fleet serves everyone else; the quarantined tenant is simply gone.
  auto snap = recovered.Tenant(healthy);
  ASSERT_TRUE(snap.ok());
  ExpectMatchesStandalone(*snap,
                          RunStandalone(*SharedDetector(), healthy_feed),
                          "tenant next to quarantined WAL");
  EXPECT_EQ(recovered.Tenant(victim).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*recovered.Ingest(healthy, {1.0, 2.0}), IngestStatus::kAccepted);
}

// ServeFault::kCheckpointBitFlip: a bit-flipped model checkpoint fails its
// CRC (DataLoss), the registry quarantines the path so it is never decoded
// again, and recovery quarantines the tenants that needed it.
TEST(ServeChaosCheckpointTest, CheckpointBitFlipQuarantinesModelAndTenant) {
  const std::string dir = ChaosDir("ckptrot");
  const std::string ckpt = "/tmp/triad_chaos_ckptrot.ckpt";
  TRIAD_CHECK(std::system(
                  ("cp " + SharedCheckpointPath() + " " + ckpt).c_str()) == 0);

  FleetOptions options;
  options.durability.dir = dir;
  int64_t id = 0;
  {
    ModelRegistry registry;
    FleetServer fleet(options);
    auto added = fleet.AddTenantFromCheckpoint(&registry, ckpt);
    ASSERT_TRUE(added.ok());
    id = *added;
    ASSERT_TRUE(fleet.Ingest(id, Prefix(SmallDataset(240).test, 64)).ok());
  }
  // v3 checkpoint header is [magic4][u32 version][u32 crc][u64 len] = 20
  // bytes; a payload flip must fail the CRC as DataLoss.
  ASSERT_TRUE(FlipBitInFile(ckpt, /*seed=*/13, /*min_offset=*/20));

  ModelRegistry registry;
  FleetServer recovered(options);
  auto report = recovered.Recover(&registry);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tenants_recovered, 0);
  ASSERT_EQ(report->quarantined.size(), 1u);
  EXPECT_EQ(report->quarantined[0].id, id);
  EXPECT_EQ(report->quarantined[0].reason.code(), StatusCode::kDataLoss);
  // The registry remembers: the second load short-circuits without
  // re-reading the file, and the path is listed.
  EXPECT_EQ(registry.LoadCheckpoint(ckpt).status().code(),
            StatusCode::kDataLoss);
  const std::vector<std::string> quarantined = registry.quarantined();
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0], ckpt);
}

TEST(ServeChaosManifestTest, CorruptManifestFailsRecoveryWithDataLoss) {
  const std::string dir = ChaosDir("manifestrot");
  FleetOptions options;
  options.durability.dir = dir;
  {
    ModelRegistry registry;
    FleetServer fleet(options);
    ASSERT_TRUE(
        fleet.AddTenantFromCheckpoint(&registry, SharedCheckpointPath()).ok());
  }
  ASSERT_TRUE(FlipBitInFile(dir + "/manifest", /*seed=*/17,
                            /*min_offset=*/20));
  ModelRegistry registry;
  FleetServer recovered(options);
  EXPECT_EQ(recovered.Recover(&registry).status().code(),
            StatusCode::kDataLoss);
}

// ServeFault::kPassHang: a pass that stops reaching time checkpoints (the
// hook spins on the cancellation flag alone, so only the watchdog can
// release it) is cut loose, surfaces as DeadlineExceeded, degrades the
// tenant on the ordinary QoS ladder, and never stalls the other tenants.
TEST(ServeChaosWatchdogTest, WatchdogCancelsHungPassWithoutStallingOthers) {
  auto detector = SharedDetector();
  FleetOptions options;
  options.pass_deadline_seconds = 0.25;
  options.qos_window = 4;
  options.qos_min_passes = 1;
  FleetServer fleet(options);
  auto hung = fleet.AddTenant(detector);
  auto healthy = fleet.AddTenant(detector);
  ASSERT_TRUE(hung.ok() && healthy.ok());

  std::atomic<int64_t> hangs{0};
  ServeTestHooks hooks;
  const int64_t hung_id = *hung;
  hooks.before_append = [&hangs, hung_id](int64_t tenant_id) -> Status {
    if (tenant_id != hung_id || hangs.fetch_add(1) > 0) return Status::OK();
    const DeadlinePtr& deadline = CurrentPassDeadline();
    TRIAD_CHECK(deadline != nullptr);
    while (!deadline->cancelled.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return CheckPassDeadline();
  };
  SetServeTestHooks(hooks);

  const std::vector<double> feed = SmallDataset(250).test;
  ASSERT_TRUE(fleet.Ingest(*hung, feed).ok());
  ASSERT_TRUE(fleet.Ingest(*healthy, feed).ok());
  ASSERT_TRUE(fleet.Drain().ok());
  ClearServeTestHooks();

  const FleetStats stats = fleet.stats();
  EXPECT_GE(stats.watchdog_cancels, 1u);
  EXPECT_GE(stats.deadline_expired_passes, 1u);
  EXPECT_EQ(stats.queue_chunks, 0);

  auto hung_snap = fleet.Tenant(*hung);
  ASSERT_TRUE(hung_snap.ok());
  EXPECT_EQ(hung_snap->last_error.code(), StatusCode::kDeadlineExceeded);
  // DeadlineExceeded fed the ladder: the hung tenant is off healthy.
  EXPECT_NE(hung_snap->rung, QosRung::kHealthy);

  auto healthy_snap = fleet.Tenant(*healthy);
  ASSERT_TRUE(healthy_snap.ok());
  ExpectMatchesStandalone(*healthy_snap, RunStandalone(*detector, feed),
                          "tenant sharing a drain with a hung pass");

  // The cancelled tenant is degraded, not bricked: the next drain serves it.
  ASSERT_TRUE(fleet.Ingest(*hung, Prefix(feed, 64)).ok());
  ASSERT_TRUE(fleet.Drain().ok());
  auto after = fleet.Tenant(*hung);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->total_points, 0);
}

// ServeFault::kTransientAppend: Unavailable outcomes retry in place with
// backoff — the timeline shows no trace of them. Exhausting the retry
// budget surfaces the error and drops the chunk without wedging the drain.
TEST(ServeChaosRetryTest, TransientAppendFaultsRetryThenExhaust) {
  auto detector = SharedDetector();
  const std::vector<double> feed = SmallDataset(260).test;

  FleetOptions options;
  options.retry_backoff_seconds = 1e-4;  // keep the test fast
  {
    FleetServer fleet(options);
    auto id = fleet.AddTenant(detector);
    ASSERT_TRUE(id.ok());
    std::atomic<int64_t> calls{0};
    ServeTestHooks hooks;
    hooks.before_append = [&calls](int64_t) -> Status {
      return calls.fetch_add(1) < 2 ? Status::Unavailable("injected fault")
                                    : Status::OK();
    };
    SetServeTestHooks(hooks);
    ASSERT_TRUE(fleet.Ingest(*id, feed).ok());
    ASSERT_TRUE(fleet.Drain().ok());
    ClearServeTestHooks();
    EXPECT_EQ(fleet.stats().transient_retries, 2u);
    EXPECT_EQ(fleet.stats().append_errors, 0u);
    auto snap = fleet.Tenant(*id);
    ASSERT_TRUE(snap.ok());
    EXPECT_TRUE(snap->last_error.ok());
    ExpectMatchesStandalone(*snap, RunStandalone(*detector, feed),
                            "tenant with retried transient faults");
  }
  {
    // A fault that never clears: max_transient_retries attempts, then the
    // chunk is dropped as a hard error and the drain moves on.
    FleetServer fleet(options);
    auto id = fleet.AddTenant(detector);
    ASSERT_TRUE(id.ok());
    ServeTestHooks hooks;
    hooks.before_append = [](int64_t) -> Status {
      return Status::Unavailable("injected fault that never clears");
    };
    SetServeTestHooks(hooks);
    ASSERT_TRUE(fleet.Ingest(*id, feed).ok());
    ASSERT_TRUE(fleet.Drain().ok());
    ClearServeTestHooks();
    EXPECT_EQ(fleet.stats().transient_retries,
              static_cast<uint64_t>(options.max_transient_retries));
    EXPECT_EQ(fleet.stats().append_errors, 1u);
    EXPECT_EQ(fleet.stats().queue_chunks, 0);
    auto snap = fleet.Tenant(*id);
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(snap->last_error.code(), StatusCode::kUnavailable);
    EXPECT_EQ(snap->total_points, 0);  // the chunk never reached the stream
  }
}

// ServeFault::kAdmissionAllocFail: an enqueue allocation failure rejects
// the chunk with an exact ledger AND rolls its WAL record back — admission
// is atomic, so a chunk the caller was told kRejected never resurfaces at
// recovery. The caller retries it (that is what kRejected means), and the
// retry lands exactly once even across a crash + Recover(). Under the old
// keep-the-record behaviour this test fails: the retry would put the chunk
// in the WAL twice and the recovered timeline would double-apply it.
TEST(ServeChaosAdmissionTest, AllocFailureRollsBackWalSoRetryNeverDoubles) {
  const std::string dir = ChaosDir("allocfail");
  FleetOptions options;
  options.durability.dir = dir;
  constexpr size_t kChunk = 64;
  const std::vector<double> feed = SmallDataset(270).test;
  int64_t id = 0;
  {
    ModelRegistry registry;
    FleetServer fleet(options);
    auto added = fleet.AddTenantFromCheckpoint(&registry,
                                               SharedCheckpointPath());
    ASSERT_TRUE(added.ok());
    id = *added;
    std::atomic<int64_t> failures{0};
    ServeTestHooks hooks;
    hooks.admission_alloc_fail = [&failures](int64_t) {
      return failures.fetch_add(1) == 0;  // first enqueue only
    };
    SetServeTestHooks(hooks);
    EXPECT_EQ(*fleet.Ingest(id, Prefix(feed, kChunk)),
              IngestStatus::kRejected);
    ClearServeTestHooks();
    // The rejected record was truncated away: the log ends at an intact
    // boundary, so the caller's retry — and the rest of the feed — appends
    // with contiguous seqs.
    for (size_t off = 0; off < feed.size(); off += kChunk) {
      const size_t hi = std::min(feed.size(), off + kChunk);
      ASSERT_EQ(*fleet.Ingest(
                    id, std::vector<double>(
                            feed.begin() + static_cast<long>(off),
                            feed.begin() + static_cast<long>(hi))),
                IngestStatus::kAccepted);
    }
    const FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.admission_alloc_failures, 1u);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.submitted, stats.accepted + stats.degraded +
                                   stats.rejected);
    // Exactly the *enqueued* chunks are in the WAL; the rolled-back record
    // is not counted and not on disk.
    EXPECT_EQ(stats.wal_records, stats.accepted + stats.degraded);
    // Killed here, before any drain: recovery owes the caller exactly the
    // acknowledged chunks — the rejected one only via its retry.
  }
  ModelRegistry registry;
  FleetServer recovered(options);
  auto report = recovered.Recover(&registry);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->chunks_replayed,
            static_cast<int64_t>((feed.size() + kChunk - 1) / kChunk));
  auto snap = recovered.Tenant(id);
  ASSERT_TRUE(snap.ok());
  ExpectMatchesStandalone(*snap, RunStandalone(*SharedDetector(), feed),
                          "recovery after an alloc-failed-then-retried chunk");
}

// WalWriter invariant: a record rolled back with TruncateTo leaves the log
// ending at an intact boundary — its seq is unclaimed, the next append
// reuses it, and a scan sees only the kept records (no torn bytes, no
// duplicate seq, exactly the failure modes a dirty WAL would cause).
TEST(ServeChaosWalWriterTest, TruncateToRestoresRecordBoundaryDurably) {
  const std::string dir = ChaosDir("walrollback");
  ASSERT_TRUE(EnsureDir(dir).ok());
  const std::string path = dir + "/wal";
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {3.0, 4.0, 5.0};
  const std::vector<double> c = {6.0};
  auto writer = WalWriter::Open(path, /*fsync_each=*/true);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(1, a.data(), a.size()).ok());
  const uint64_t boundary = writer->tail_offset();
  ASSERT_TRUE(writer->Append(2, b.data(), b.size()).ok());
  EXPECT_GT(writer->tail_offset(), boundary);
  // Roll record 2 back (as if its enqueue failed): seq 2 is unclaimed.
  ASSERT_TRUE(writer->TruncateTo(boundary).ok());
  EXPECT_FALSE(writer->broken());
  EXPECT_EQ(writer->tail_offset(), boundary);
  EXPECT_EQ(FileSize(path), static_cast<int64_t>(boundary));
  ASSERT_TRUE(writer->Append(2, c.data(), c.size()).ok());
  writer->Close();

  auto replay = ReadWal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->outcome, io::RecordScanOutcome::kClean);
  ASSERT_EQ(replay->chunks.size(), 2u);
  EXPECT_EQ(replay->chunks[0].seq, 1u);
  EXPECT_EQ(replay->chunks[0].points, a);
  EXPECT_EQ(replay->chunks[1].seq, 2u);
  EXPECT_EQ(replay->chunks[1].points, c);
}

// A manifest write failure unwinds AddTenant completely: no live tenant
// may be left behind (the caller's natural retry would duplicate it under
// a new id), and the id is reusable once the fault clears.
TEST(ServeChaosAddTenantTest, ManifestWriteFailureRollsBackRegistration) {
  const std::string dir = ChaosDir("manifestfail");
  ASSERT_TRUE(EnsureDir(dir).ok());
  // A directory squatting on the manifest path makes the atomic
  // write-temp-then-rename fail after the tenant's WAL already opened.
  ASSERT_TRUE(EnsureDir(dir + "/manifest").ok());
  FleetOptions options;
  options.durability.dir = dir;
  ModelRegistry registry;
  FleetServer fleet(options);
  EXPECT_FALSE(
      fleet.AddTenantFromCheckpoint(&registry, SharedCheckpointPath()).ok());
  EXPECT_EQ(fleet.tenant_count(), 0);
  // Fault cleared: the retry registers one tenant under the first id.
  TRIAD_CHECK(std::system(("rmdir " + dir + "/manifest").c_str()) == 0);
  auto id = fleet.AddTenantFromCheckpoint(&registry, SharedCheckpointPath());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 1);
  EXPECT_EQ(fleet.tenant_count(), 1);
}

// Satellite 2 regression: one tenant throwing out of a batched drain group
// is absorbed at the per-tenant fault boundary — the remaining tenants of
// the same group still drain, bit-identically.
TEST(ServeChaosIsolationTest, ThrowingTenantDoesNotSkipItsBatchedGroup) {
  auto detector = SharedDetector();
  constexpr int kTenants = 4;
  FleetServer fleet;
  std::vector<int64_t> ids;
  std::vector<std::vector<double>> feeds;
  for (int t = 0; t < kTenants; ++t) {
    auto id = fleet.AddTenant(detector);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    feeds.push_back(SmallDataset(280 + static_cast<uint64_t>(t)).test);
  }
  const int64_t bad_id = ids[1];
  ServeTestHooks hooks;
  hooks.before_append = [bad_id](int64_t tenant_id) -> Status {
    if (tenant_id == bad_id) {
      throw std::runtime_error("injected tenant failure");
    }
    return Status::OK();
  };
  SetServeTestHooks(hooks);
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(
        fleet.Ingest(ids[static_cast<size_t>(t)], feeds[static_cast<size_t>(t)])
            .ok());
  }
  // All four tenants are ready, so one drain scores them in one batch.
  ASSERT_TRUE(fleet.Drain().ok());
  ClearServeTestHooks();

  EXPECT_EQ(fleet.stats().queue_chunks, 0);
  EXPECT_EQ(fleet.stats().append_errors, 1u);
  auto bad = fleet.Tenant(bad_id);
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->last_error.code(), StatusCode::kInternal);
  EXPECT_NE(bad->last_error.message().find("threw"), std::string::npos);
  for (int t = 0; t < kTenants; ++t) {
    if (ids[static_cast<size_t>(t)] == bad_id) continue;
    auto snap = fleet.Tenant(ids[static_cast<size_t>(t)]);
    ASSERT_TRUE(snap.ok());
    ExpectMatchesStandalone(
        *snap,
        RunStandalone(*detector, feeds[static_cast<size_t>(t)]),
        "group-mate of a throwing tenant, tenant " + std::to_string(t));
  }
}

// The acceptance-criteria scale check: a 256-tenant durable fleet — some
// tenants snapshotted, all with WAL tails past the watermark — killed
// mid-stream recovers every tenant bit-identically in one Recover() call.
TEST(ServeChaosScaleTest, Fleet256KilledMidStreamRecoversBitIdentically) {
  const std::string dir = ChaosDir("fleet256");
  constexpr int kTenants = 256;
  FleetOptions options;
  options.durability.dir = dir;
  options.durability.snapshot_every_passes = 1;

  // Short per-tenant feeds keep 256 standalone references affordable:
  // one full buffer (drained + snapshotted) plus two hops (killed in the
  // WAL tail). Eight base series, phase-shifted per tenant.
  core::StreamingTriad probe(SharedDetector().get());
  const size_t buffer = static_cast<size_t>(probe.buffer_length());
  const size_t hop = static_cast<size_t>(probe.hop());
  // Base series long enough for the worst phase shift (< hop) plus one
  // buffer plus two hops, whatever geometry the detector derived.
  const size_t needed = buffer + 3 * hop;
  std::vector<std::vector<double>> bases;
  for (uint64_t b = 0; b < 8; ++b) {
    bases.push_back(TestSeries(300 + b, needed));
  }
  std::vector<std::vector<double>> feeds;
  for (int t = 0; t < kTenants; ++t) {
    const std::vector<double>& base = bases[static_cast<size_t>(t) % 8];
    const size_t shift = (static_cast<size_t>(t) / 8) % hop;
    TRIAD_CHECK(base.size() >= shift + buffer + 2 * hop);
    feeds.push_back(std::vector<double>(
        base.begin() + static_cast<long>(shift),
        base.begin() + static_cast<long>(shift + buffer + 2 * hop)));
  }

  std::vector<int64_t> ids;
  {
    ModelRegistry registry;
    FleetServer fleet(options);
    for (int t = 0; t < kTenants; ++t) {
      auto id = fleet.AddTenantFromCheckpoint(&registry,
                                              SharedCheckpointPath());
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
      ASSERT_TRUE(
          fleet.Ingest(*id, Prefix(feeds[static_cast<size_t>(t)], buffer))
              .ok());
    }
    ASSERT_TRUE(fleet.Drain().ok());  // one pass each → snapshots at cadence 1
    // Drain only hands the states to the writer lane; count once written.
    ASSERT_TRUE(fleet.FlushSnapshots().ok());
    EXPECT_EQ(fleet.stats().snapshots, static_cast<uint64_t>(kTenants));
    for (int t = 0; t < kTenants; ++t) {
      const auto& feed = feeds[static_cast<size_t>(t)];
      ASSERT_TRUE(fleet
                      .Ingest(ids[static_cast<size_t>(t)],
                              std::vector<double>(
                                  feed.begin() + static_cast<long>(buffer),
                                  feed.end()))
                      .ok());
    }
    // Killed here: every tenant has a snapshot at the watermark plus one
    // undrained WAL record past it.
  }

  ModelRegistry registry;
  FleetServer recovered(options);
  auto report = recovered.Recover(&registry);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tenants_recovered, kTenants);
  EXPECT_TRUE(report->quarantined.empty());
  EXPECT_EQ(report->chunks_replayed, kTenants);  // exactly the WAL tails
  EXPECT_EQ(report->snapshot_fallbacks, 0);
  EXPECT_EQ(report->torn_wal_tails, 0);
  const auto& detector = *SharedDetector();
  for (int t = 0; t < kTenants; ++t) {
    auto snap = recovered.Tenant(ids[static_cast<size_t>(t)]);
    ASSERT_TRUE(snap.ok());
    ASSERT_GT(snap->passes, 0) << "tenant " << t;
    ExpectMatchesStandalone(
        *snap, RunStandalone(detector, feeds[static_cast<size_t>(t)]),
        "256-fleet tenant " + std::to_string(t));
  }
}

// The snapshot writer lane: a failed write sets the tenant's last_error but
// changes no verdict, the tenant is handed off again at its next drain
// whatever the cadence says, and a kill then recovers from the older
// snapshot plus the WAL, bit for bit.
TEST_P(ServeChaosTest, FailedSnapshotWriteKeepsVerdictsAndRetriesNextDrain) {
  simd::ScopedForceLevel force(GetParam());
  const std::string dir =
      ChaosDir(std::string("snapfail_") + simd::LevelName(GetParam()));
  const Geometry geometry = StreamGeometry();
  // Chunk 0 fills the buffer and chunk k > 0 is the k-th hop: one pass each.
  const auto chunk_end = [&](size_t k) {
    return geometry.buffer + k * geometry.hop;
  };
  const std::vector<double> feed = TestSeries(290, chunk_end(4));

  FleetOptions options;
  options.durability.dir = dir;
  options.durability.snapshot_every_passes = 2;
  std::atomic<bool> fail{false};
  std::atomic<int64_t> attempts{0};
  ServeTestHooks hooks;
  hooks.before_snapshot_write = [&fail, &attempts](int64_t) -> Status {
    attempts.fetch_add(1);
    return fail.load() ? Status::IoError("injected snapshot write failure")
                       : Status::OK();
  };
  SetServeTestHooks(hooks);
  const auto& detector = *SharedDetector();
  int64_t id = 0;
  {
    ModelRegistry registry;
    FleetServer fleet(options);
    auto added = fleet.AddTenantFromCheckpoint(&registry,
                                               SharedCheckpointPath());
    ASSERT_TRUE(added.ok());
    id = *added;
    // Serves chunk k and checks the verdicts against a standalone run.
    const auto serve_chunk = [&](size_t k) {
      const size_t begin = k == 0 ? 0 : chunk_end(k - 1);
      ASSERT_TRUE(fleet.Ingest(id, Slice(feed, begin, chunk_end(k))).ok());
      auto passes = fleet.Drain();
      ASSERT_TRUE(passes.ok());
      ASSERT_EQ(*passes, 1);
      auto snap = fleet.Tenant(id);
      ASSERT_TRUE(snap.ok());
      ExpectMatchesStandalone(
          *snap, RunStandalone(detector, Prefix(feed, chunk_end(k))),
          "after chunk " + std::to_string(k));
    };
    serve_chunk(0);
    serve_chunk(1);  // two passes: handed off, written
    ASSERT_TRUE(fleet.FlushSnapshots().ok());
    EXPECT_EQ(attempts.load(), 1);
    EXPECT_EQ(fleet.stats().snapshots, 1u);

    fail = true;
    serve_chunk(2);  // one pass since the hand-off: not due
    EXPECT_EQ(fleet.FlushSnapshots().code(), StatusCode::kOk);
    EXPECT_EQ(attempts.load(), 1);
    serve_chunk(3);  // two passes: handed off, and the write fails
    EXPECT_EQ(fleet.FlushSnapshots().code(), StatusCode::kIoError);
    EXPECT_EQ(attempts.load(), 2);
    EXPECT_EQ(fleet.Tenant(id)->last_error.code(), StatusCode::kIoError);
    serve_chunk(4);  // one pass, yet due again after the failure
    EXPECT_EQ(fleet.FlushSnapshots().code(), StatusCode::kIoError);
    EXPECT_EQ(attempts.load(), 3);
    EXPECT_EQ(fleet.stats().snapshots, 1u);
    // Killed here: the disk holds the snapshot taken after chunk 1.
  }
  ClearServeTestHooks();

  ModelRegistry registry;
  FleetServer recovered(options);
  auto report = recovered.Recover(&registry);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tenants_recovered, 1);
  EXPECT_EQ(report->snapshot_fallbacks, 0);
  EXPECT_EQ(report->chunks_replayed, 3);  // chunks 2..4, past the watermark
  auto snap = recovered.Tenant(id);
  ASSERT_TRUE(snap.ok());
  ExpectMatchesStandalone(*snap,
                          RunStandalone(detector, Prefix(feed, chunk_end(4))),
                          "recovered from the older snapshot plus the WAL");
}

// The hooks below capture test locals, so a test that stops early must not
// leave them installed for the next one.
class ServeChaosSnapshotLaneTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearServeTestHooks(); }
};

// A stalled disk makes snapshots staler, never a verdict later: drains go
// on while the lane is held in a write, the states they hand off replace
// one another, and once the disk frees the lane writes the newest one —
// its watermark equals the live one and it decodes to the live state.
TEST_F(ServeChaosSnapshotLaneTest, HeldLaneWritesOnlyTheNewestState) {
  const std::string dir = ChaosDir("heldlane");
  const Geometry geometry = StreamGeometry();
  constexpr size_t kHeldDrains = 4;
  const std::vector<double> feed =
      TestSeries(291, geometry.buffer + kHeldDrains * geometry.hop);

  FleetOptions options;
  options.durability.dir = dir;
  options.durability.snapshot_every_passes = 1;
  DiskGate disk;
  std::atomic<int64_t> attempts{0};
  std::atomic<bool> stalled_out{false};
  ServeTestHooks hooks;
  hooks.before_snapshot_write = [&](int64_t) -> Status {
    if (attempts.fetch_add(1) == 0 && !disk.Wait(std::chrono::seconds(20))) {
      stalled_out = true;
    }
    return Status::OK();
  };
  SetServeTestHooks(hooks);
  ModelRegistry registry;
  FleetServer fleet(options);
  auto id = fleet.AddTenantFromCheckpoint(&registry, SharedCheckpointPath());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fleet.Ingest(*id, Prefix(feed, geometry.buffer)).ok());
  ASSERT_EQ(*fleet.Drain(), 1);
  ASSERT_TRUE(AwaitCount(attempts, 1));  // the lane is now held
  for (size_t k = 1; k <= kHeldDrains; ++k) {
    const size_t end = geometry.buffer + k * geometry.hop;
    ASSERT_TRUE(fleet.Ingest(*id, Slice(feed, end - geometry.hop, end)).ok());
    ASSERT_EQ(*fleet.Drain(), 1);
  }
  EXPECT_FALSE(stalled_out.load()) << "a drain waited on the held lane";
  EXPECT_EQ(fleet.stats().snapshots, 0u);
  auto live = fleet.Tenant(*id);
  ASSERT_TRUE(live.ok());
  ExpectMatchesStandalone(*live, RunStandalone(*SharedDetector(), feed),
                          "tenant drained past a held lane");

  disk.Open();
  ASSERT_TRUE(fleet.FlushSnapshots().ok());
  // The held state, then the newest: the three between were replaced.
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(fleet.stats().snapshots, 2u);
  ExpectSnapshotMatchesLive(dir, *live, 1 + kHeldDrains,
                            "snapshot written after the hold");
}

// Checkpoint with writes pending waits for them: every tenant's current
// state is on disk before the manifest is written, and a failed write
// returns its Status with the manifest left unwritten.
TEST_F(ServeChaosSnapshotLaneTest,
       CheckpointWritesPendingStatesBeforeManifest) {
  const std::string dir = ChaosDir("ckptlane");
  const std::string manifest = dir + "/manifest";
  const Geometry geometry = StreamGeometry();
  constexpr int kTenants = 3;
  FleetOptions options;
  options.durability.dir = dir;
  options.durability.snapshot_every_passes = 1;
  DiskGate disk;
  std::atomic<int64_t> attempts{0};
  std::atomic<bool> fail{false};
  ServeTestHooks hooks;
  hooks.before_snapshot_write = [&](int64_t) -> Status {
    if (attempts.fetch_add(1) == 0) disk.Wait(std::chrono::seconds(20));
    return fail.load() ? Status::IoError("injected snapshot write failure")
                       : Status::OK();
  };
  SetServeTestHooks(hooks);
  std::vector<std::vector<double>> feeds;
  std::vector<int64_t> ids;
  {
    ModelRegistry registry;
    FleetServer fleet(options);
    for (int t = 0; t < kTenants; ++t) {
      auto id = fleet.AddTenantFromCheckpoint(&registry,
                                              SharedCheckpointPath());
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
      feeds.push_back(TestSeries(292 + static_cast<uint64_t>(t),
                                      geometry.buffer + geometry.hop));
      ASSERT_TRUE(fleet.Ingest(*id, Prefix(feeds.back(), geometry.buffer))
                      .ok());
    }
    ASSERT_TRUE(fleet.Drain().ok());
    ASSERT_TRUE(AwaitCount(attempts, 1));  // the lane is now held
    for (int t = 0; t < kTenants; ++t) {
      const auto& feed = feeds[static_cast<size_t>(t)];
      ASSERT_TRUE(fleet
                      .Ingest(ids[static_cast<size_t>(t)],
                              Slice(feed, geometry.buffer,
                                    geometry.buffer + geometry.hop))
                      .ok());
    }
    ASSERT_TRUE(fleet.Drain().ok());
    // AddTenant wrote the manifest; take it away so its rewrite shows.
    ASSERT_EQ(std::remove(manifest.c_str()), 0);

    std::atomic<bool> done{false};
    Status checkpointed;
    std::thread checkpoint([&] {
      checkpointed = fleet.Checkpoint();
      done = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(done.load()) << "Checkpoint returned with writes pending";
    EXPECT_EQ(FileSize(manifest), -1);
    disk.Open();
    checkpoint.join();
    ASSERT_TRUE(checkpointed.ok()) << checkpointed.ToString();
    EXPECT_GT(FileSize(manifest), 0);
    for (int t = 0; t < kTenants; ++t) {
      auto live = fleet.Tenant(ids[static_cast<size_t>(t)]);
      ASSERT_TRUE(live.ok());
      ExpectSnapshotMatchesLive(dir, *live, 2,
                                "checkpointed tenant " + std::to_string(t));
    }

    // No write is pending now. A failing disk fails the Checkpoint, and
    // its manifest is not written.
    fail = true;
    ASSERT_EQ(std::remove(manifest.c_str()), 0);
    EXPECT_EQ(fleet.Checkpoint().code(), StatusCode::kIoError);
    EXPECT_EQ(FileSize(manifest), -1);
    fail = false;
    ASSERT_TRUE(fleet.Checkpoint().ok());
  }
  ClearServeTestHooks();

  ModelRegistry registry;
  FleetServer recovered(options);
  auto report = recovered.Recover(&registry);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tenants_recovered, kTenants);
  EXPECT_EQ(report->chunks_replayed, 0);
  for (int t = 0; t < kTenants; ++t) {
    auto snap = recovered.Tenant(ids[static_cast<size_t>(t)]);
    ASSERT_TRUE(snap.ok());
    ExpectMatchesStandalone(
        *snap, RunStandalone(*SharedDetector(), feeds[static_cast<size_t>(t)]),
        "recovered checkpointed tenant " + std::to_string(t));
  }
}

TEST(ServeChaosApiTest, DurabilityPreconditionsAreEnforced) {
  // Non-durable fleets reject the durable entry points.
  FleetServer plain;
  ModelRegistry registry;
  EXPECT_EQ(plain.Checkpoint().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(plain.Recover(&registry).status().code(),
            StatusCode::kFailedPrecondition);

  FleetOptions options;
  options.durability.dir = ChaosDir("api");
  FleetServer durable(options);
  // A durable tenant must carry a model_key for Recover to re-resolve.
  EXPECT_EQ(durable.AddTenant(SharedDetector()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(durable.Recover(nullptr).status().code(),
            StatusCode::kInvalidArgument);
  // No manifest yet: nothing to recover from.
  EXPECT_EQ(durable.Recover(&registry).status().code(), StatusCode::kIoError);
  // Recovery must start from a fresh fleet.
  auto id = durable.AddTenantFromCheckpoint(&registry, SharedCheckpointPath());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(durable.Recover(&registry).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace triad::serve
