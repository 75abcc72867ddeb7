// fleet_paced: the live, crash-safe path an operator runs. 64 period-16
// tenants on a durable fleet, fed by an open loop of 8 cohorts that each
// deliver one hop per 200 ms tick at their own 25 ms phase; one cohort
// carries dirty streams. The run ends in a crash with a fixed WAL tail,
// and FleetServer::Recover then runs repeatedly from copies of that image.

#include <algorithm>
#include <filesystem>
#include <thread>

#include "common/parallel.h"
#include "fleet.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace serve = triad::serve;

namespace {

constexpr int64_t kPeriod = 16;
constexpr int64_t kBuffer = 160;  // four windows of 40
constexpr int64_t kHop = 10;
constexpr int64_t kCohorts = 8;
constexpr int64_t kPerCohort = 8;
constexpr int64_t kTenants = kCohorts * kPerCohort;
constexpr int64_t kDirtyCohort = kCohorts - 1;
constexpr double kTick = 0.200;
constexpr double kPhase = kTick / kCohorts;
constexpr int64_t kTailTicks = 2;
constexpr int kSetups = 5;
constexpr int kRecoveries = 5;

// Where a tenant's measured stream starts. Tenant i of a cohort is set up
// with i extra hops, so the eight tenants of a cohort reach the snapshot
// cadence (every 8 passes) on different ticks instead of all at once.
int64_t Start(int64_t tenant) {
  return kBuffer + (tenant % kPerCohort) * kHop;
}

bool Verified(int64_t tenant) {
  // Every dirty tenant plus the first tenant of each clean cohort.
  return tenant / kPerCohort == kDirtyCohort || tenant % kPerCohort == 0;
}

}  // namespace

void RunFleetPaced(const Args& args, Report* report) {
  const int64_t ticks =
      std::max<int64_t>(10, static_cast<int64_t>(args.seconds / kTick + 0.5));
  const std::string crash_dir = args.state_dir + "/crash";
  const std::string work_dir = args.state_dir + "/work";
  SpeedIndex speed(args.lanes);
  FleetShape shape;
  shape.period = kPeriod;
  shape.tenants = kTenants;
  shape.stream_length = kBuffer + (kPerCohort + ticks + kTailTicks) * kHop;
  shape.first_dirty = kDirtyCohort * kPerCohort;
  shape.stream.buffer_length = kBuffer;
  shape.stream.hop = kHop;
  shape.fleet.durability.dir = args.state_dir + "/live";
  // The durable directory must sit inside the checkout, on the host's disk:
  // an fsync per admitted chunk would put the disk's latency spikes into
  // every latency metric. Snapshots are still fsync'd.
  shape.fleet.durability.fsync_wal = false;
  shape.first_chunk = Start;
  Fleet fleet;
  if (!SetUpFleet(args.seed, shape, kSetups, &speed, &fleet, report)) return;
  serve::FleetServer* server = fleet.server.get();

  // ---- measured phase: the open loop ----
  struct Arrival {
    double due;
    int64_t tick;
    int64_t cohort;
  };
  std::vector<Arrival> arrivals;
  const double origin = Now() + 0.05;
  for (int64_t k = 0; k < ticks; ++k) {
    for (int64_t c = 0; c < kCohorts; ++c) {
      arrivals.push_back({origin + k * kTick + c * kPhase, k, c});
    }
  }
  IngestTally tally;
  std::vector<double> verdict_ms, lag_ms, drain_ms;
  int64_t backlog_max = 0, late = 0;
  double busy = 0.0, sample_cpu = 0.0;
  const serve::FleetStats stats_before = server->stats();
  const Counters before = ReadCounters();
  const double cpu_start = ProcessCpuSeconds();
  const double phase_start = Now();
  int64_t sampled_tick = -1;
  size_t next = 0;
  {
    ScopedSpan phase("phase.measure");
    while (next < arrivals.size()) {
      const Arrival& due = arrivals[next];
      const double now = Now();
      if (now < due.due) {
        // Idle until the next arrival: sample host speed once per tick when
        // the slack allows, otherwise sleep.
        if (due.due - now > 0.004 && sampled_tick != due.tick) {
          sampled_tick = due.tick;
          const double cpu0 = ProcessCpuSeconds();
          ScopedSpan span("bench.speed_sample");
          speed.Sample(4);
          sample_cpu += ProcessCpuSeconds() - cpu0;
          continue;
        }
        ScopedSpan span("bench.idle");
        std::this_thread::sleep_until(
            std::chrono::steady_clock::now() +
            std::chrono::duration<double>(due.due - now));
        continue;
      }
      lag_ms.push_back((now - due.due) * 1e3);
      // Every chunk already due arrived while the last drain ran.
      std::vector<size_t> batch;
      while (next < arrivals.size() && arrivals[next].due <= Now()) {
        const Arrival& a = arrivals[next];
        for (int64_t i = 0; i < kPerCohort; ++i) {
          const int64_t t = a.cohort * kPerCohort + i;
          const int64_t offset = Start(t) + a.tick * kHop;
          TimedIngest(server, fleet.ids[t],
                      Slice(fleet.feeds[t].points, offset, offset + kHop),
                      &tally);
        }
        batch.push_back(next++);
      }
      backlog_max = std::max(backlog_max, server->stats().queue_chunks);
      drain_ms.push_back(TimedDrain(server, &tally));
      const double done = Now();
      for (size_t a : batch) {
        const double latency = done - arrivals[a].due;
        verdict_ms.push_back(latency * 1e3);
        if (latency > kTick) ++late;
      }
      busy += done - now;
    }
  }
  const double phase_s = Now() - phase_start;
  const double cpu_s = ProcessCpuSeconds() - cpu_start - sample_cpu;
  const Counters measured = Delta(ReadCounters(), before);
  const serve::FleetStats stats_after = server->stats();
  const int64_t unscored = static_cast<int64_t>(
      stats_after.failed_passes - stats_before.failed_passes +
      stats_after.append_errors - stats_before.append_errors);

  // The live timelines, before the crash.
  std::vector<serve::TenantSnapshot> live(kTenants);
  Accuracy accuracy;
  for (int64_t t = 0; t < kTenants; ++t) {
    auto snap = server->Tenant(fleet.ids[t]);
    if (!snap.ok()) {
      report->Mismatch("tenant snapshot failed");
      return;
    }
    live[t] = *snap;
    accuracy.Add(live[t].alarms, fleet.feeds[t].labels);
  }

  // ---- crash with a fixed WAL tail: admitted, never drained ----
  const auto served_end = [&](int64_t t) { return Start(t) + ticks * kHop; };
  const auto crash_end = [&](int64_t t) {
    return served_end(t) + kTailTicks * kHop;
  };
  IngestTally tail;
  for (int64_t t = 0; t < kTenants; ++t) {
    for (int64_t k = 0; k < kTailTicks; ++k) {
      const int64_t offset = served_end(t) + k * kHop;
      TimedIngest(server, fleet.ids[t],
                  Slice(fleet.feeds[t].points, offset, offset + kHop), &tail);
    }
  }
  fleet.server.reset();  // killed: nothing drained, nothing checkpointed
  {
    std::error_code ec;
    fs::remove_all(crash_dir, ec);
    fs::copy(shape.fleet.durability.dir, crash_dir,
             fs::copy_options::recursive, ec);
    if (ec) {
      report->Mismatch("cannot copy crash image: " + ec.message());
      return;
    }
  }

  // Standalone replays of the verified tenants: the served prefix, then
  // the WAL tail.
  std::vector<int64_t> verified;
  for (int64_t t = 0; t < kTenants; ++t) {
    if (Verified(t)) verified.push_back(t);
  }
  std::vector<std::vector<ReplayResult>> replays(verified.size());
  triad::ParallelFor(0, static_cast<int64_t>(verified.size()), 1,
                     [&](int64_t begin, int64_t end) {
                       for (int64_t v = begin; v < end; ++v) {
                         const int64_t t = verified[v];
                         const auto& p = fleet.feeds[t].points;
                         replays[v] = StandaloneReplay(
                             *fleet.model, shape.stream,
                             {Slice(p, 0, served_end(t)),
                              Slice(p, served_end(t), crash_end(t))});
                       }
                     });
  for (size_t v = 0; v < verified.size(); ++v) {
    const serve::TenantSnapshot& snap = live[verified[v]];
    const std::string diff =
        CompareTenant("live", snap.id, snap.alarms, snap.passes,
                      snap.failed_passes, replays[v][0]);
    if (!diff.empty()) report->Mismatch(diff);
  }

  // ---- recovery, each time from a fresh copy of the crash image ----
  std::vector<double> recover_s;
  int64_t recovered = 0, quarantined = 0, replayed_points = 0;
  serve::FleetOptions recover_options = shape.fleet;
  recover_options.durability.dir = work_dir;
  const Counters before_recovery = ReadCounters();
  for (int cycle = 0; cycle < kRecoveries; ++cycle) {
    {
      std::error_code ec;
      fs::remove_all(work_dir, ec);
      fs::copy(crash_dir, work_dir, fs::copy_options::recursive, ec);
    }
    speed.Sample();
    serve::FleetServer restarted(recover_options);
    const double start = Now();
    triad::Result<serve::RecoveryReport> rec =
        triad::Status::Internal("not run");
    {
      ScopedSpan span("serve.recover");
      rec = restarted.Recover(fleet.registry.get());
    }
    recover_s.push_back(Now() - start);
    if (!rec.ok()) {
      report->Mismatch("Recover failed: " + rec.status().ToString());
      quarantined += kTenants;
      continue;
    }
    recovered += rec->tenants_recovered;
    quarantined += static_cast<int64_t>(rec->quarantined.size());
    replayed_points = rec->points_replayed;
    for (size_t v = 0; v < verified.size(); ++v) {
      const int64_t id = fleet.ids[verified[v]];
      auto snap = restarted.Tenant(id);
      const std::string diff =
          snap.ok() ? CompareTenant("recovered", id, snap->alarms,
                                    snap->passes, snap->failed_passes,
                                    replays[v][1])
                    : "recovered tenant " + std::to_string(id) + " missing";
      if (!diff.empty()) report->Mismatch(diff);
    }
  }
  const Counters recovery = Delta(ReadCounters(), before_recovery);

  // ---- traced per-layer replay: one tenant per cohort, so one in eight is
  // dirty as in the fleet ----
  LayerSamples layers;
  if (args.trace) {
    ScopedSpan span("phase.replay");
    for (int64_t t = 0; t < kTenants; t += kPerCohort) {
      TracedReplay(*fleet.model, shape.stream,
                   Slice(fleet.feeds[t].points, 0, served_end(t)), &layers);
    }
  }

  // ---- outcome ----
  report->attempted = tally.submitted + tail.submitted + kRecoveries * kTenants;
  report->failed = tally.rejected + tally.errored + tail.rejected +
                   tail.errored + late + unscored + quarantined;
  report->counters["setup_training"] = fleet.training;
  report->counters["measured"] = measured;
  report->counters["recovery"] = recovery;
  report->AddEndToEnd(fleet.setup_s, cpu_s,
                      static_cast<double>(ticks * kTenants * kHop), busy,
                      verdict_ms);
  AddServeLayers(tally, drain_ms, busy, phase_s, backlog_max, report);
  report->Layer("serve.lag_ms_p99", Tail(lag_ms), "ms");
  report->Layer("serve.replayed_points", static_cast<double>(replayed_points),
                "count");
  report->Layer("serve.recover_s", Median(recover_s), "s");
  AddCounterLayers(measured, fleet.training, report);
  accuracy.Report(report);
  report->Layer("detector.fit_ms_p50", Median(fleet.fit_s) * 1e3, "ms");
  report->Layer("trainer.windows_per_s",
                static_cast<double>(fleet.model->train_stats().train_windows *
                                    fleet.model->config().epochs) /
                    Median(fleet.fit_s),
                "1/s");
  if (args.trace) AddReplayLayers(layers, report);
  report->notes["late_verdicts"] = std::to_string(late);
  report->notes["recover_s_samples"] = std::to_string(recover_s.size());
  report->notes["recovered_tenants"] = std::to_string(recovered);
  report->notes["verified_tenants"] = std::to_string(verified.size());
  report->CorrectForSpeed(speed);
}

}  // namespace perfbench
