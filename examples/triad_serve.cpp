// Fleet-serving scenario (ARCHITECTURE.md §9): one triad-serve process
// monitoring many independent sensors ("tenants") with a handful of shared
// models.
//
// The driver fits one detector, checkpoints it, then warm-starts N
// synthetic tenants from that checkpoint through the ModelRegistry — the
// fleet holds one model in memory no matter how many tenants serve it.
// Streams are ingested interleaved and scored in batched drains; one
// tenant feeds corrupted telemetry to show the QoS ladder rejecting it
// while its neighbours keep scoring.
//
// Usage: triad_serve [num_tenants]   (default 8)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "core/detector.h"
#include "data/ucr_generator.h"
#include "serve/fleet_server.h"
#include "serve/model_registry.h"

int main(int argc, char** argv) {
  using namespace triad;

  const int tenants = argc > 1 ? std::atoi(argv[1]) : 8;
  if (tenants < 1) {
    std::printf("usage: %s [num_tenants >= 1]\n", argv[0]);
    return 1;
  }

  // One model for the whole fleet: fit, checkpoint, registry warm-start.
  data::UcrGeneratorOptions gen;
  gen.count = 1;
  gen.seed = 29;
  gen.min_period = 32;
  gen.max_period = 32;
  const data::UcrDataset base = data::MakeUcrArchive(gen)[0];
  core::TriadConfig config;
  config.depth = 2;
  config.hidden_dim = 16;
  config.epochs = 5;
  core::TriadDetector detector(config);
  if (Status s = detector.Fit(base.train); !s.ok()) {
    std::printf("fit failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const std::string checkpoint = "/tmp/triad_serve_example.ckpt";
  if (Status s = detector.Save(checkpoint); !s.ok()) {
    std::printf("checkpoint failed: %s\n", s.ToString().c_str());
    return 1;
  }

  serve::ModelRegistry registry;
  serve::FleetServer fleet;
  std::vector<int64_t> ids;
  for (int t = 0; t < tenants; ++t) {
    auto id = fleet.AddTenantFromCheckpoint(&registry, checkpoint);
    if (!id.ok()) {
      std::printf("add tenant failed: %s\n",
                  id.status().ToString().c_str());
      return 1;
    }
    ids.push_back(*id);
  }
  std::printf("fleet: %lld tenants, %lld model(s) resident\n",
              static_cast<long long>(fleet.tenant_count()),
              static_cast<long long>(registry.size()));

  // Distinct synthetic stream per tenant; the last tenant's telemetry is
  // corrupted into unrepairable garbage mid-stream.
  std::vector<std::vector<double>> feeds;
  for (int t = 0; t < tenants; ++t) {
    data::UcrGeneratorOptions opts = gen;
    opts.seed = 100 + static_cast<uint64_t>(t);
    std::vector<double> feed = data::MakeUcrArchive(opts)[0].test;
    if (t == tenants - 1) {
      for (size_t i = feed.size() / 4; i < feed.size(); ++i) {
        feed[i] = std::numeric_limits<double>::quiet_NaN();
      }
    }
    feeds.push_back(std::move(feed));
  }

  // Interleaved ingest, drain every few rounds — the serving loop.
  const size_t kChunk = 32;
  bool remaining = true;
  size_t offset = 0;
  int64_t rounds = 0;
  while (remaining) {
    remaining = false;
    for (int t = 0; t < tenants; ++t) {
      const auto& feed = feeds[static_cast<size_t>(t)];
      if (offset >= feed.size()) continue;
      const size_t hi = std::min(feed.size(), offset + kChunk);
      auto status = fleet.Ingest(
          ids[static_cast<size_t>(t)],
          std::vector<double>(feed.begin() + static_cast<long>(offset),
                              feed.begin() + static_cast<long>(hi)));
      if (!status.ok()) {
        std::printf("ingest failed: %s\n",
                    status.status().ToString().c_str());
        return 1;
      }
      remaining = true;
    }
    offset += kChunk;
    if (++rounds % 3 == 0 && !fleet.Drain().ok()) return 1;
  }
  if (!fleet.Drain().ok()) return 1;

  std::printf("\n%-8s %-10s %7s %7s %7s %7s\n", "tenant", "rung", "points",
              "passes", "failed", "alarms");
  for (int64_t id : ids) {
    auto snap = fleet.Tenant(id);
    if (!snap.ok()) continue;
    int64_t alarmed = 0;
    for (int a : snap->alarms) alarmed += a;
    std::printf("%-8lld %-10s %7lld %7lld %7lld %7lld\n",
                static_cast<long long>(snap->id), ToString(snap->rung),
                static_cast<long long>(snap->total_points),
                static_cast<long long>(snap->passes),
                static_cast<long long>(snap->failed_passes),
                static_cast<long long>(alarmed));
  }

  const serve::FleetStats stats = fleet.stats();
  std::printf("\nfleet: submitted %llu = accepted %llu + degraded %llu + "
              "rejected %llu\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.degraded),
              static_cast<unsigned long long>(stats.rejected));
  std::printf("       %llu passes (%llu batched)\n",
              static_cast<unsigned long long>(stats.passes +
                                              stats.failed_passes),
              static_cast<unsigned long long>(stats.batched_detects));
  return 0;
}
