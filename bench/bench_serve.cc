// Fleet-serving throughput (ARCHITECTURE.md §9): how many tenant passes
// per second one process sustains when hundreds of StreamingTriad tenants
// share a model, the thread pool, and the ingest queue. The --json mode
// serves TRIAD_BENCH_SERVE_TENANTS synthetic tenants (default 256, a
// dirty cohort included so the QoS ladder and its rejection counters are
// exercised), verifies every tenant's alarm timeline bit-identical against
// a standalone replay of its accepted chunks, and emits BENCH_serve.json
// (schema triad-observability-v1; see bench/README.md).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/streaming.h"
#include "serve/fleet_server.h"
#include "serve/model_registry.h"

namespace triad::serve {
namespace {

constexpr double kPi = 3.14159265358979323846;

std::vector<double> StreamWorkload(size_t n, double period, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (size_t t = 0; t < n; ++t) {
    x[t] = std::sin(2.0 * kPi * static_cast<double>(t) / period) +
           rng.Normal(0.0, 0.05);
  }
  return x;
}

core::TriadDetector MakeDetector(uint64_t seed) {
  core::TriadConfig config;
  config.depth = 2;
  config.hidden_dim = 8;
  config.epochs = 3;
  config.seed = seed;
  config.merlin_length_step = 4;
  core::TriadDetector detector(config);
  const std::vector<double> train = StreamWorkload(4096, 64.0, seed + 1);
  TRIAD_CHECK(detector.Fit(train).ok());
  return detector;
}

std::shared_ptr<const core::TriadDetector> SharedDetector() {
  static const std::shared_ptr<const core::TriadDetector> detector =
      std::make_shared<const core::TriadDetector>(MakeDetector(5));
  return detector;
}

// ---- google-benchmark microbenches ----

// Flips one payload bit of the file's first WAL record (offset 9 is past
// the 8-byte frame header), turning it into interior corruption recovery
// must quarantine — the bench's way of keeping the quarantine counters in
// BENCH_serve.json honest without linking the test-only fault library.
bool FlipWalPayloadBit(const std::string& path) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!file) return false;
  file.seekg(9);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 1);
  file.seekp(9);
  file.write(&byte, 1);
  return static_cast<bool>(file);
}

// One serving cycle: round-robin ingest of one chunk per tenant, then a
// batched drain. Sweeping the tenant count shows how the same-shape
// batching amortizes.
void BM_FleetServeCycle(benchmark::State& state) {
  const int64_t tenants = state.range(0);
  auto detector = SharedDetector();
  const std::vector<double> feed = StreamWorkload(1 << 14, 64.0, 9);
  for (auto _ : state) {
    state.PauseTiming();
    FleetServer fleet;
    std::vector<int64_t> ids;
    for (int64_t t = 0; t < tenants; ++t) {
      auto id = fleet.AddTenant(detector);
      TRIAD_CHECK(id.ok());
      ids.push_back(*id);
    }
    state.ResumeTiming();
    const size_t chunk = 256;
    for (size_t off = 0; off + chunk <= 4096; off += chunk) {
      for (int64_t id : ids) {
        auto status = fleet.Ingest(
            id, std::vector<double>(feed.begin() + static_cast<long>(off),
                                    feed.begin() +
                                        static_cast<long>(off + chunk)));
        TRIAD_CHECK(status.ok());
      }
      auto passes = fleet.Drain();
      TRIAD_CHECK(passes.ok());
      benchmark::DoNotOptimize(*passes);
    }
  }
  state.SetItemsProcessed(state.iterations() * tenants);
}
BENCHMARK(BM_FleetServeCycle)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Admission-path overhead alone: ingest into a fleet that never drains
// (bounded by the per-tenant budget, so rejections are part of the cost).
void BM_FleetIngestOnly(benchmark::State& state) {
  auto detector = SharedDetector();
  FleetServer fleet;
  auto id = fleet.AddTenant(detector);
  TRIAD_CHECK(id.ok());
  const std::vector<double> chunk(64, 0.5);
  for (auto _ : state) {
    auto status = fleet.Ingest(*id, chunk);
    TRIAD_CHECK(status.ok());
    benchmark::DoNotOptimize(*status);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FleetIngestOnly);

// ---- --json mode: the ≥256-tenant sustained-serve record ----

int RunJsonMode() {
  metrics::ScopedEnable enable(true);
  metrics::Registry::Global().ResetAll();
  Timer wall;

  const int64_t tenants = GetEnvInt("TRIAD_BENCH_SERVE_TENANTS", 256);
  const int64_t points = GetEnvInt("TRIAD_BENCH_SERVE_POINTS", 2048);
  auto detector = SharedDetector();

  // Every eighth tenant turns dirty mid-stream: NaN telemetry from the
  // quarter mark on, so the QoS ladder (and the rejection counters the
  // JSON must report) actually engage under load.
  std::vector<std::vector<double>> feeds;
  feeds.reserve(static_cast<size_t>(tenants));
  for (int64_t t = 0; t < tenants; ++t) {
    std::vector<double> feed = StreamWorkload(
        static_cast<size_t>(points), 64.0, 100 + static_cast<uint64_t>(t));
    if (t % 8 == 7) {
      for (size_t i = feed.size() / 4; i < feed.size(); ++i) {
        feed[i] = std::numeric_limits<double>::quiet_NaN();
      }
    }
    feeds.push_back(std::move(feed));
  }

  ModelRegistry registry;
  registry.Register("fleet-model", MakeDetector(5));
  FleetServer fleet;
  std::vector<int64_t> ids;
  std::vector<std::vector<double>> accepted(
      static_cast<size_t>(tenants));
  for (int64_t t = 0; t < tenants; ++t) {
    auto model = registry.Get("fleet-model");
    TRIAD_CHECK(model.ok());
    auto id = fleet.AddTenant(*model);
    TRIAD_CHECK(id.ok());
    ids.push_back(*id);
  }

  // The serving loop: interleaved round-robin ingest, drain every round.
  Timer serve_timer;
  int64_t max_queue_depth = 0;
  const size_t chunk = 256;
  size_t offset = 0;
  bool remaining = true;
  while (remaining) {
    remaining = false;
    for (int64_t t = 0; t < tenants; ++t) {
      const auto& feed = feeds[static_cast<size_t>(t)];
      if (offset >= feed.size()) continue;
      const size_t hi = std::min(feed.size(), offset + chunk);
      std::vector<double> piece(feed.begin() + static_cast<long>(offset),
                                feed.begin() + static_cast<long>(hi));
      auto status = fleet.Ingest(ids[static_cast<size_t>(t)], piece);
      TRIAD_CHECK(status.ok());
      if (*status != IngestStatus::kRejected) {
        auto& log = accepted[static_cast<size_t>(t)];
        log.insert(log.end(), piece.begin(), piece.end());
      }
      remaining = true;
    }
    offset += chunk;
    max_queue_depth = std::max(max_queue_depth, fleet.stats().queue_chunks);
    auto passes = fleet.Drain();
    TRIAD_CHECK(passes.ok());
  }
  TRIAD_CHECK(fleet.Drain().ok());
  const double serve_seconds = serve_timer.ElapsedSeconds();

  // Acceptance gate: every tenant — dirty cohort included — bit-identical
  // to a standalone replay of exactly the chunks the fleet accepted.
  const auto* model = SharedDetector().get();
  for (int64_t t = 0; t < tenants; ++t) {
    auto snap = fleet.Tenant(ids[static_cast<size_t>(t)]);
    TRIAD_CHECK(snap.ok());
    core::StreamingTriad standalone(model);
    TRIAD_CHECK(standalone.Append(accepted[static_cast<size_t>(t)]).ok());
    TRIAD_CHECK_MSG(snap->alarms == standalone.alarms(),
                    "tenant " << ids[static_cast<size_t>(t)]
                              << " diverged from standalone replay");
    TRIAD_CHECK_EQ(snap->passes, standalone.passes());
    TRIAD_CHECK_EQ(snap->failed_passes, standalone.failed_passes());
  }

  // ---- crash-recovery phase (ARCHITECTURE.md §10) ----
  // A durable cohort served with WAL + snapshots, two injected transient
  // faults (exercising the retry counter), then killed mid-stream with one
  // tenant's WAL bit-flipped — Recover() must quarantine exactly that
  // tenant and rebuild every other timeline bit-identically.
  const int64_t durable_tenants =
      std::min<int64_t>(tenants, GetEnvInt("TRIAD_BENCH_SERVE_DURABLE", 64));
  // Whole chunks, and at least one buffer plus a few hops: the drained
  // prefix must produce passes (so snapshots actually happen before the
  // kill) whatever TRIAD_BENCH_SERVE_POINTS says.
  core::StreamingTriad durable_probe(SharedDetector().get());
  size_t durable_points = std::max(
      std::min<size_t>(static_cast<size_t>(points), 1024),
      static_cast<size_t>(durable_probe.buffer_length() +
                          4 * durable_probe.hop()));
  durable_points = (durable_points + chunk - 1) / chunk * chunk;
  const std::string durable_dir = "/tmp/triad_bench_serve_durable";
  TRIAD_CHECK(std::system(("rm -rf " + durable_dir).c_str()) == 0);
  FleetOptions durable_options;
  durable_options.durability.dir = durable_dir;
  // Cadence 1: even the CI-sized run (whose tenants see a single pass
  // before the kill) writes snapshots, so recovery exercises the
  // snapshot-restore + watermark-replay path, not just full-WAL replay.
  durable_options.durability.snapshot_every_passes = 1;
  // Clean feeds for this cohort: a dirty tenant climbs the QoS ladder and
  // starts rejecting chunks, which is the main phase's business — the
  // recovery gate wants every admitted chunk back, nothing subtler.
  std::vector<std::vector<double>> durable_feeds;
  for (int64_t t = 0; t < durable_tenants; ++t) {
    durable_feeds.push_back(StreamWorkload(durable_points, 64.0,
                                           500 + static_cast<uint64_t>(t)));
  }
  std::vector<int64_t> durable_ids;
  FleetStats killed_stats;
  {
    FleetServer durable(durable_options);
    std::atomic<int64_t> injected{0};
    ServeTestHooks hooks;
    hooks.before_append = [&injected](int64_t) -> Status {
      return injected.fetch_add(1) < 2
                 ? Status::Unavailable("bench-injected transient fault")
                 : Status::OK();
    };
    SetServeTestHooks(hooks);
    for (int64_t t = 0; t < durable_tenants; ++t) {
      auto model = registry.Get("fleet-model");
      TRIAD_CHECK(model.ok());
      TenantOptions tenant_options;
      tenant_options.model_key = "fleet-model";
      auto id = durable.AddTenant(*model, tenant_options);
      TRIAD_CHECK(id.ok());
      durable_ids.push_back(*id);
    }
    // Most of the feed drained (so snapshots happen at cadence), the last
    // chunk left in the WAL tail so the recovery below actually replays.
    for (size_t off = 0; off < durable_points; off += chunk) {
      for (int64_t t = 0; t < durable_tenants; ++t) {
        const auto& feed = durable_feeds[static_cast<size_t>(t)];
        const size_t hi = std::min(durable_points, off + chunk);
        auto status = durable.Ingest(
            durable_ids[static_cast<size_t>(t)],
            std::vector<double>(feed.begin() + static_cast<long>(off),
                                feed.begin() + static_cast<long>(hi)));
        TRIAD_CHECK(status.ok());
        TRIAD_CHECK(*status == IngestStatus::kAccepted);
      }
      if (off + 2 * chunk <= durable_points) {
        TRIAD_CHECK(durable.Drain().ok());
      }
    }
    // The writer lane may still hold snapshots the drains handed it: wait
    // for them before the hooks change and before counting them.
    TRIAD_CHECK(durable.FlushSnapshots().ok());
    ClearServeTestHooks();
    killed_stats = durable.stats();
    // Killed here: the fleet object is abandoned with chunks still queued.
  }
  TRIAD_CHECK(FlipWalPayloadBit(
      TenantDir(durable_dir, durable_ids[0]) + "/wal"));

  ModelRegistry recovery_registry;
  recovery_registry.Register("fleet-model", MakeDetector(5));
  FleetServer recovered(durable_options);
  auto report = recovered.Recover(&recovery_registry);
  TRIAD_CHECK(report.ok());
  TRIAD_CHECK_EQ(report->tenants_recovered, durable_tenants - 1);
  TRIAD_CHECK_EQ(static_cast<int64_t>(report->quarantined.size()), 1);
  for (int64_t t = 1; t < durable_tenants; ++t) {
    auto snap = recovered.Tenant(durable_ids[static_cast<size_t>(t)]);
    TRIAD_CHECK(snap.ok());
    core::StreamingTriad standalone(SharedDetector().get());
    TRIAD_CHECK(standalone.Append(durable_feeds[static_cast<size_t>(t)]).ok());
    TRIAD_CHECK_MSG(snap->alarms == standalone.alarms(),
                    "recovered tenant "
                        << durable_ids[static_cast<size_t>(t)]
                        << " diverged from standalone replay");
  }

  const FleetStats stats = fleet.stats();
  const double total_passes =
      static_cast<double>(stats.passes + stats.failed_passes);
  const std::vector<std::pair<std::string, double>> extras = {
      {"tenants", static_cast<double>(tenants)},
      {"points_per_tenant", static_cast<double>(points)},
      {"chunk", static_cast<double>(chunk)},
      {"serve_seconds", serve_seconds},
      {"total_passes", total_passes},
      {"tenant_passes_per_sec", total_passes / serve_seconds},
      {"points_per_sec",
       static_cast<double>(tenants * points) / serve_seconds},
      {"max_queue_depth", static_cast<double>(max_queue_depth)},
      {"submitted", static_cast<double>(stats.submitted)},
      {"accepted", static_cast<double>(stats.accepted)},
      {"degraded", static_cast<double>(stats.degraded)},
      {"rejected", static_cast<double>(stats.rejected)},
      {"batched_detects", static_cast<double>(stats.batched_detects)},
      {"verified_tenants", static_cast<double>(tenants)},
      // Crash-recovery phase (ARCHITECTURE.md §10). The registry dump in
      // this record carries the matching instruments (the
      // serve.recovery_seconds histogram, serve.quarantined_tenants,
      // serve.transient_retries, ...).
      {"durable_tenants", static_cast<double>(durable_tenants)},
      {"durable_points_per_tenant", static_cast<double>(durable_points)},
      {"wal_records", static_cast<double>(killed_stats.wal_records)},
      {"snapshots", static_cast<double>(killed_stats.snapshots)},
      {"transient_retries",
       static_cast<double>(killed_stats.transient_retries)},
      {"recovery_seconds", report->recovery_seconds},
      {"recovered_tenants", static_cast<double>(report->tenants_recovered)},
      {"chunks_replayed", static_cast<double>(report->chunks_replayed)},
      {"points_replayed", static_cast<double>(report->points_replayed)},
      {"replayed_points_per_sec",
       report->recovery_seconds > 0.0
           ? static_cast<double>(report->points_replayed) /
                 report->recovery_seconds
           : 0.0},
      {"quarantined_tenants", static_cast<double>(report->quarantined.size())},
      {"snapshot_fallbacks", static_cast<double>(report->snapshot_fallbacks)},
      {"torn_wal_tails", static_cast<double>(report->torn_wal_tails)},
  };
  bench::WriteBenchJson("serve", wall.ElapsedSeconds(), extras);
  return 0;
}

}  // namespace
}  // namespace triad::serve

// --json mode is dispatched before benchmark::Initialize ever sees argv.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == std::string("--json")) {
      return triad::serve::RunJsonMode();
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
