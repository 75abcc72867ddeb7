// fleet_saturated: a backlogged fleet at full speed. 32 period-64 tenants
// with sparse anomalies on an in-memory fleet, fed by a closed loop: each
// round gives every tenant one hop and drains it before the next round, so
// every drain is one 32-tenant same-shape group.

#include <algorithm>

#include "common/parallel.h"
#include "fleet.h"

namespace perfbench {

namespace serve = triad::serve;

namespace {

constexpr int64_t kPeriod = 64;
constexpr int64_t kBuffer = 640;  // four windows of 160
constexpr int64_t kHop = 40;
constexpr int64_t kTenants = 32;
constexpr int64_t kVerifyEvery = 8;  // tenants 0, 8, 16, 24
constexpr int kSetups = 5;
// Rounds per requested second: a fixed amount of work, sized to take about
// the requested time on the reference host, so work counts repeat exactly.
constexpr double kRoundsPerSecond = 1.4;

int64_t FirstChunk(int64_t) { return kBuffer; }

}  // namespace

void RunFleetSaturated(const Args& args, Report* report) {
  const int64_t rounds = std::max<int64_t>(
      4, static_cast<int64_t>(args.seconds * kRoundsPerSecond + 0.5));
  SpeedIndex speed(args.lanes);
  FleetShape shape;
  shape.period = kPeriod;
  shape.tenants = kTenants;
  shape.stream_length = kBuffer + rounds * kHop;
  shape.first_dirty = kTenants;  // none
  shape.stream.buffer_length = kBuffer;
  shape.stream.hop = kHop;
  shape.first_chunk = FirstChunk;
  Fleet fleet;
  if (!SetUpFleet(args.seed, shape, kSetups, &speed, &fleet, report)) return;
  serve::FleetServer* server = fleet.server.get();

  // ---- measured phase: the closed loop ----
  IngestTally tally;
  std::vector<double> verdict_ms, drain_ms;
  int64_t backlog_max = 0;
  double busy = 0.0, cpu_s = 0.0;
  const serve::FleetStats stats_before = server->stats();
  const Counters before = ReadCounters();
  const double phase_start = Now();
  const double budget_end = phase_start + kBudgetFactor * args.seconds;
  int64_t ran = 0;  // rounds
  {
    ScopedSpan phase("phase.measure");
    for (; ran < rounds && Now() < budget_end; ++ran) {
      {
        // Between rounds, outside the timed work.
        ScopedSpan span("bench.speed_sample");
        speed.Sample(4);
      }
      const double cpu0 = ProcessCpuSeconds();
      const double round_start = Now();
      const int64_t offset = kBuffer + ran * kHop;
      for (int64_t t = 0; t < kTenants; ++t) {
        TimedIngest(server, fleet.ids[t],
                    Slice(fleet.feeds[t].points, offset, offset + kHop),
                    &tally);
      }
      backlog_max = std::max(backlog_max, server->stats().queue_chunks);
      drain_ms.push_back(TimedDrain(server, &tally));
      const double done = Now();
      verdict_ms.push_back((done - round_start) * 1e3);
      busy += done - round_start;
      cpu_s += ProcessCpuSeconds() - cpu0;
    }
  }
  const double phase_s = Now() - phase_start;
  const Counters measured = Delta(ReadCounters(), before);
  const serve::FleetStats stats_after = server->stats();
  const int64_t unscored = static_cast<int64_t>(
      stats_after.failed_passes - stats_before.failed_passes +
      stats_after.append_errors - stats_before.append_errors);
  const int64_t accepted_end = kBuffer + ran * kHop;  // per tenant

  // ---- correctness: a fixed subset against standalone replays ----
  Accuracy accuracy;
  std::vector<serve::TenantSnapshot> snaps(kTenants);
  for (int64_t t = 0; t < kTenants; ++t) {
    auto snap = server->Tenant(fleet.ids[t]);
    if (!snap.ok()) {
      report->Mismatch("tenant snapshot failed");
      return;
    }
    snaps[t] = *snap;
    accuracy.Add(snaps[t].alarms, fleet.feeds[t].labels);
  }
  const int64_t verified = kTenants / kVerifyEvery;
  std::vector<std::vector<ReplayResult>> replays(verified);
  triad::ParallelFor(0, verified, 1, [&](int64_t begin, int64_t end) {
    for (int64_t v = begin; v < end; ++v) {
      replays[v] = StandaloneReplay(
          *fleet.model, shape.stream,
          {Slice(fleet.feeds[v * kVerifyEvery].points, 0, accepted_end)});
    }
  });
  for (int64_t v = 0; v < verified; ++v) {
    const serve::TenantSnapshot& snap = snaps[v * kVerifyEvery];
    const std::string diff =
        CompareTenant("served", snap.id, snap.alarms, snap.passes,
                      snap.failed_passes, replays[v][0]);
    if (!diff.empty()) report->Mismatch(diff);
  }

  // ---- traced per-layer replay of a fixed subset ----
  LayerSamples layers;
  if (args.trace) {
    ScopedSpan span("phase.replay");
    for (int64_t t : {int64_t{0}, int64_t{1}}) {
      TracedReplay(*fleet.model, shape.stream,
                   Slice(fleet.feeds[t].points, 0, accepted_end), &layers);
    }
  }

  // ---- outcome ----
  report->attempted = tally.submitted;
  report->failed = tally.rejected + tally.errored + unscored;
  report->counters["setup_training"] = fleet.training;
  report->counters["measured"] = measured;
  report->AddEndToEnd(fleet.setup_s, cpu_s,
                      static_cast<double>(ran * kTenants * kHop), busy,
                      verdict_ms);
  AddServeLayers(tally, drain_ms, busy, phase_s, backlog_max, report);
  AddCounterLayers(measured, fleet.training, report);
  accuracy.Report(report);
  report->Layer("detector.fit_ms_p50", Median(fleet.fit_s) * 1e3, "ms");
  report->Layer("trainer.windows_per_s",
                static_cast<double>(fleet.model->train_stats().train_windows *
                                    fleet.model->config().epochs) /
                    Median(fleet.fit_s),
                "1/s");
  if (args.trace) AddReplayLayers(layers, report);
  report->notes["rounds"] = std::to_string(ran);
  if (ran < rounds) {
    report->notes["budget_cut"] = std::to_string(ran) + " of " +
                                  std::to_string(rounds) + " rounds";
  }
  report->notes["verified_tenants"] = std::to_string(verified);
  report->CorrectForSpeed(speed);
}

}  // namespace perfbench
