#include "fleet.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>

#include "data/sanitize.h"
#include "discord/discord.h"
#include "eval/metrics.h"

namespace perfbench {

namespace core = triad::core;
namespace serve = triad::serve;

namespace {

constexpr double kTwoPi = 6.283185307179586;

std::vector<double> SensorSeries(InputRng* rng, int64_t period,
                                 int64_t length) {
  const double amp = 0.8 + 0.4 * rng->Uniform();
  const double phase = kTwoPi * rng->Uniform();
  const double harmonic = 0.2 + 0.2 * rng->Uniform();
  std::vector<double> x(static_cast<size_t>(length));
  for (int64_t t = 0; t < length; ++t) {
    const double w = kTwoPi * static_cast<double>(t) /
                     static_cast<double>(period);
    x[static_cast<size_t>(t)] = amp * std::sin(w + phase) +
                                harmonic * std::sin(2.0 * w + 2.0 * phase) +
                                0.05 * rng->Normal();
  }
  return x;
}

}  // namespace

const char* const kModelKey = "fleet-model";

std::vector<double> Slice(const std::vector<double>& v, int64_t begin,
                          int64_t end) {
  return std::vector<double>(v.begin() + begin, v.begin() + end);
}

Feed MakeFeed(uint64_t seed, int64_t tenant, int64_t period, int64_t length,
              bool dirty) {
  InputRng rng(MixSeed(seed, 1000 + static_cast<uint64_t>(tenant)));
  Feed feed;
  feed.points = SensorSeries(&rng, period, length);
  feed.labels.assign(static_cast<size_t>(length), 0);
  // Sparse anomalies: one every 25-45 periods, each a bump or a local
  // frequency change lasting half a period to a period, never in the first
  // buffer (ten periods) so the first full pass sees normal data.
  int64_t at = 12 * period + rng.UniformInt(0, 20 * period);
  while (at + 2 * period < length) {
    const int64_t width = period / 2 + rng.UniformInt(0, period / 2);
    const bool bump = rng.Uniform() < 0.5;
    const double height = 0.8 + 0.6 * rng.Uniform();
    for (int64_t k = 0; k < width; ++k) {
      const size_t i = static_cast<size_t>(at + k);
      const double s = std::sin(M_PI * static_cast<double>(k) /
                                static_cast<double>(width));
      feed.points[i] += bump ? height * s
                             : height * std::sin(kTwoPi * 3.0 *
                                                 static_cast<double>(k) /
                                                 static_cast<double>(period));
      feed.labels[i] = 1;
    }
    at += 25 * period + rng.UniformInt(0, 20 * period);
  }
  if (dirty) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (int64_t start = rng.UniformInt(20, 240); start + 4 <= length;
         start += 250) {
      for (int64_t k = 0; k < 4; ++k) {
        feed.points[static_cast<size_t>(start + k)] = nan;
      }
    }
  }
  return feed;
}

bool SetUpFleet(uint64_t seed, const FleetShape& shape, int reps,
                SpeedIndex* speed, Fleet* out, Report* report) {
  core::TriadConfig config;
  config.depth = 2;
  config.hidden_dim = 8;
  config.epochs = 3;
  config.seed = 5;
  config.merlin_length_step = 4;
  serve::TenantOptions tenant_options;
  tenant_options.streaming = shape.stream;
  tenant_options.model_key = kModelKey;
  const std::string& dir = shape.fleet.durability.dir;
  for (int rep = 0; rep < reps; ++rep) {
    out->server.reset();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      std::filesystem::create_directories(dir, ec);
    }
    speed->Sample();
    ScopedSpan span("phase.setup");
    const double start = Now();
    out->feeds.clear();
    for (int64_t t = 0; t < shape.tenants; ++t) {
      out->feeds.push_back(MakeFeed(seed, t, shape.period, shape.stream_length,
                                    t >= shape.first_dirty));
    }
    InputRng rng(MixSeed(seed, 7));
    const std::vector<double> train = SensorSeries(&rng, shape.period, 4096);
    core::TriadDetector detector(config);
    const Counters before_fit = ReadCounters();
    const double fit_start = Now();
    triad::Status fitted;
    {
      ScopedSpan fit_span("detector.fit");
      fitted = detector.Fit(train);
    }
    out->fit_s.push_back(Now() - fit_start);
    out->training = Delta(ReadCounters(), before_fit);
    if (!fitted.ok()) {
      report->Mismatch("fleet model failed to fit: " + fitted.ToString());
      return false;
    }
    out->registry = std::make_unique<serve::ModelRegistry>();
    out->model = out->registry->Register(kModelKey, std::move(detector));
    out->server = std::make_unique<serve::FleetServer>(shape.fleet);
    out->ids.clear();
    for (int64_t t = 0; t < shape.tenants; ++t) {
      auto id = out->server->AddTenant(out->model, tenant_options);
      if (!id.ok()) {
        report->Mismatch("AddTenant failed: " + id.status().ToString());
        return false;
      }
      out->ids.push_back(*id);
    }
    for (int64_t t = 0; t < shape.tenants; ++t) {
      auto status = out->server->Ingest(
          out->ids[t], Slice(out->feeds[t].points, 0, shape.first_chunk(t)));
      if (!status.ok() || *status == serve::IngestStatus::kRejected) {
        report->Mismatch("set-up chunk not admitted");
        return false;
      }
    }
    if (!out->server->Drain().ok()) {
      report->Mismatch("set-up drain failed");
      return false;
    }
    out->setup_s.push_back(Now() - start);
  }
  return true;
}

void TimedIngest(serve::FleetServer* fleet, int64_t id,
                 const std::vector<double>& chunk, IngestTally* tally) {
  const double start = Now();
  triad::Result<serve::IngestStatus> status =
      triad::Status::Internal("not run");
  {
    ScopedSpan span("serve.ingest");
    status = fleet->Ingest(id, chunk);
  }
  tally->ingest_us.push_back((Now() - start) * 1e6);
  ++tally->submitted;
  if (!status.ok()) {
    ++tally->errored;
  } else if (*status == serve::IngestStatus::kRejected) {
    ++tally->rejected;
  }
}

double TimedDrain(serve::FleetServer* fleet, IngestTally* tally) {
  const double start = Now();
  {
    ScopedSpan span("serve.drain");
    if (!fleet->Drain().ok()) ++tally->errored;
  }
  return (Now() - start) * 1e3;
}

std::vector<ReplayResult> StandaloneReplay(
    const core::TriadDetector& detector,
    const core::StreamingOptions& options,
    const std::vector<std::vector<double>>& segments) {
  core::StreamingTriad standalone(&detector, options);
  std::vector<ReplayResult> out;
  bool ok = true;
  for (const std::vector<double>& segment : segments) {
    ok = ok && standalone.Append(segment).ok();
    out.push_back({standalone.alarms(), standalone.passes(),
                   standalone.failed_passes(), ok});
  }
  return out;
}

std::string CompareTenant(const char* what, int64_t id,
                          const std::vector<int>& alarms, int64_t passes,
                          int64_t failed_passes, const ReplayResult& replay) {
  if (replay.ok && alarms == replay.alarms && passes == replay.passes &&
      failed_passes == replay.failed_passes) {
    return "";
  }
  return std::string(what) + " tenant " + std::to_string(id) +
         " differs from its standalone replay (passes " +
         std::to_string(passes) + " vs " + std::to_string(replay.passes) +
         ", failed " + std::to_string(failed_passes) + " vs " +
         std::to_string(replay.failed_passes) + ")";
}

void LayerSamples::AddStages(const core::DetectionResult& result,
                             double start) {
  encode_s += result.encode_seconds;
  tri_window_s += result.tri_window_seconds;
  selection_s += result.selection_seconds;
  discord_s += result.discord_seconds;
  const std::pair<const char*, double> stages[] = {
      {"detector.encode", result.encode_seconds},
      {"detector.tri_window", result.tri_window_seconds},
      {"detector.selection", result.selection_seconds},
      {"detector.discord", result.discord_seconds}};
  for (const auto& [name, seconds] : stages) {
    SpanLog::Get().AddClosed(name, start, start + seconds);
    start += seconds;
  }
}

void LayerSamples::TimeMerlin(const core::TriadConfig& config,
                              const std::vector<double>& region,
                              int64_t max_length) {
  const double start = Now();
  {
    ScopedSpan span("discord.merlin");
    auto merlin = triad::discord::Merlin(region, config.merlin_min_length,
                                         max_length,
                                         config.merlin_length_step);
    if (merlin.ok()) {
      merlin_restarts += merlin->stats.restarts;
      merlin_discords += static_cast<int64_t>(merlin->discords.size());
    }
  }
  merlin_ms.push_back((Now() - start) * 1e3);
}

int64_t MerlinMaxLength(const core::TriadDetector& detector,
                        const core::DetectionResult& result) {
  const int64_t region = result.search_end - result.search_begin;
  return std::min<int64_t>(
      region / 2 - 1,
      static_cast<int64_t>(
          std::llround(detector.config().merlin_max_length_windows *
                       static_cast<double>(detector.window_length()))));
}

void TracedReplay(const core::TriadDetector& detector,
                  const core::StreamingOptions& options,
                  const std::vector<double>& stream, LayerSamples* out) {
  core::StreamingTriad streaming(&detector, options);
  const int64_t hop = streaming.hop();
  const core::TriadConfig& config = detector.config();
  core::DetectMemo memo;
  memo.BindStream(core::NextStreamUid());
  bool cold = true;
  for (size_t off = 0; off < stream.size(); off += static_cast<size_t>(hop)) {
    const size_t hi = std::min(stream.size(), off + static_cast<size_t>(hop));
    const std::vector<double> chunk(stream.begin() + static_cast<long>(off),
                                    stream.begin() + static_cast<long>(hi));
    const int64_t passes_before =
        streaming.passes() + streaming.failed_passes();
    double start = Now();
    {
      ScopedSpan span("streaming.append");
      (void)streaming.Append(chunk);
    }
    const double append_ms = (Now() - start) * 1e3;
    if (streaming.passes() + streaming.failed_passes() == passes_before) {
      continue;
    }
    (cold ? out->cold_append_ms : out->append_ms).push_back(append_ms);
    cold = false;
    // Chunks are hop-aligned and the buffer length is a multiple of the
    // hop, so the pass ran on the chunk's last point and the exported
    // buffer is the one it scored.
    const core::StreamingState state = streaming.ExportState();
    if (state.since_last_pass != 0) {
      ++out->misaligned_passes;
      continue;
    }
    start = Now();
    {
      ScopedSpan span("data.sanitize");
      (void)triad::data::SanitizeSeries(state.buffer, config.sanitize);
    }
    out->sanitize_us.push_back((Now() - start) * 1e6);
    start = Now();
    triad::Result<core::DetectionResult> result =
        triad::Status::Internal("not run");
    {
      ScopedSpan span("detector.detect");
      result = detector.Detect(state.buffer, &memo, state.buffer_global_start);
      if (result.ok()) out->AddStages(*result, start);
    }
    out->detect_ms.push_back((Now() - start) * 1e3);
    if (!result.ok()) continue;
    const int64_t max_len = MerlinMaxLength(detector, *result);
    if (max_len < config.merlin_min_length) continue;
    // Merlin over the repaired buffer's region, as Detect searched it.
    auto sanitized = triad::data::SanitizeSeries(state.buffer, config.sanitize);
    if (!sanitized.ok()) continue;
    out->TimeMerlin(config,
                    Slice(sanitized->series, result->search_begin,
                          result->search_end),
                    max_len);
  }
}

void AddReplayLayers(const LayerSamples& s, Report* report) {
  if (s.misaligned_passes > 0) {
    report->Mismatch("traced replay: " + std::to_string(s.misaligned_passes) +
                     " passes did not end a chunk");
  }
  report->Layer("streaming.append_ms_p50", Median(s.append_ms), "ms");
  report->Layer("streaming.append_ms_p99", Tail(s.append_ms), "ms");
  report->Layer("streaming.cold_append_ms", Median(s.cold_append_ms), "ms");
  report->Layer("sanitize.us_p50", Median(s.sanitize_us), "us");
  AddDetectLayers(s, report);
}

void AddDetectLayers(const LayerSamples& s, Report* report) {
  report->Layer("detector.detect_ms_p50", Median(s.detect_ms), "ms");
  report->Layer("detector.encode_s", s.encode_s, "s");
  report->Layer("detector.tri_window_s", s.tri_window_s, "s");
  report->Layer("detector.selection_s", s.selection_s, "s");
  report->Layer("detector.discord_s", s.discord_s, "s");
  report->Layer("discord.merlin_ms_p50", Median(s.merlin_ms), "ms");
  double merlin_s = 0.0;
  for (double ms : s.merlin_ms) merlin_s += ms * 1e-3;
  report->Layer("discord.merlin_s", merlin_s, "s");
  report->Layer("merlin.restarts_per_discord",
                s.merlin_discords > 0
                    ? static_cast<double>(s.merlin_restarts) /
                          static_cast<double>(s.merlin_discords)
                    : 0.0,
                "ratio");
  const double stages = s.encode_s + s.tri_window_s + s.selection_s +
                        s.discord_s;
  report->Layer("detector.discord_share",
                stages > 0 ? s.discord_s / stages : 0.0, "ratio");
  report->Layer("detector.encode_selection_share",
                stages > 0 ? (s.encode_s + s.selection_s) / stages : 0.0,
                "ratio");
  report->notes["detect_samples"] = std::to_string(s.detect_ms.size());
}

void AddServeLayers(const IngestTally& tally,
                    const std::vector<double>& drain_ms, double busy_s,
                    double phase_s, int64_t backlog_max, Report* report) {
  report->Layer("serve.drain_ms_p50", Median(drain_ms), "ms");
  report->Layer("serve.drain_ms_p99", Tail(drain_ms), "ms");
  report->Layer("serve.busy_frac", busy_s / phase_s, "ratio");
  report->Layer("serve.backlog_chunks_max", static_cast<double>(backlog_max),
                "count");
  report->Layer("serve.ingest_us_p50", Median(tally.ingest_us), "us");
  report->Layer("serve.ingest_us_p99", Tail(tally.ingest_us), "us");
  report->Layer("serve.tenants_per_drain",
                static_cast<double>(tally.submitted) /
                    static_cast<double>(drain_ms.size()),
                "count");
  report->notes["drains"] = std::to_string(drain_ms.size());
}

void Accuracy::Add(const std::vector<int>& alarms,
                   const std::vector<int>& labels) {
  const size_t n = std::min(alarms.size(), labels.size());
  const std::vector<int> pred(alarms.begin(), alarms.begin() + static_cast<long>(n));
  const std::vector<int> truth(labels.begin(), labels.begin() + static_cast<long>(n));
  constexpr int64_t kMargin = 100;
  for (const triad::eval::Event& e : triad::eval::ExtractEvents(truth)) {
    const int64_t lo = std::max<int64_t>(0, e.begin - kMargin);
    const int64_t hi = std::min<int64_t>(static_cast<int64_t>(n),
                                         e.end + kMargin);
    const std::vector<int> p(pred.begin() + lo, pred.begin() + hi);
    const std::vector<int> t(truth.begin() + lo, truth.begin() + hi);
    ++events;
    if (triad::eval::EventDetected(p, t, kMargin)) ++hit;
  }
  pak_f1_auc_sum += triad::eval::ComputePaKCurve(pred, truth).f1_auc;
  ++timelines;
}

void Accuracy::Report(perfbench::Report* report) const {
  report->Layer("eval.event_accuracy",
                events > 0 ? static_cast<double>(hit) /
                                 static_cast<double>(events)
                           : 0.0,
                "ratio");
  report->Layer("eval.pak_f1_auc",
                timelines > 0 ? pak_f1_auc_sum / static_cast<double>(timelines)
                              : 0.0,
                "ratio");
  report->notes["events"] = std::to_string(events);
}

void AddCounterLayers(const Counters& c, const Counters& training,
                      Report* report) {
  const auto count = [&](const char* name) {
    return static_cast<double>(Count(c, name));
  };
  report->Layer("serve.single_core_groups", count("serve.single_core_groups"),
                "count");
  report->Layer("serve.multi_core_groups", count("serve.multi_core_groups"),
                "count");
  report->Layer("serve.wal_records", count("serve.wal_records"), "count");
  report->Layer("serve.snapshots", count("serve.snapshots"), "count");
  report->Layer("streaming.encode_hit_ratio",
                HitRatio(c, "streaming.encode"), "ratio");
  report->Layer("streaming.dot_hit_ratio", HitRatio(c, "streaming.dot"),
                "ratio");
  report->Layer("streaming.deviation_hit_ratio",
                HitRatio(c, "streaming.deviation"), "ratio");
  report->Layer("streaming.merlin_hit_ratio", HitRatio(c, "streaming.merlin"),
                "ratio");
  report->Layer("streaming.memo_bypass", count("streaming.memo_bypass"),
                "count");
  report->Layer("streaming.full_passes", count("streaming.full_passes"),
                "count");
  report->Layer("streaming.incremental_passes",
                count("streaming.incremental_passes"), "count");
  report->Layer("mass.profiles", count("mass.profiles"), "count");
  report->Layer("mass.spectrum_hit_ratio", HitRatio(c, "mass.spectrum"),
                "ratio");
  report->Layer("merlin.restarts", count("merlin.restarts"), "count");
  report->Layer("stomp.rows", count("stomp.rows"), "count");
  report->Layer("fft.plan_hit_ratio", HitRatio(c, "fft.plan"), "ratio");
  report->Layer("sanitize.repaired_samples",
                count("sanitize.repaired_samples"), "count");
  report->Layer("parallel.batches", count("parallel.batches"), "count");
  report->Layer("parallel.chunks", count("parallel.chunks"), "count");
  report->Layer("parallel.inline_batches", count("parallel.inline_batches"),
                "count");
  report->Layer("trainer.batches",
                static_cast<double>(Count(training, "trainer.batches")),
                "count");
  report->Layer("trainer.epochs",
                static_cast<double>(Count(training, "trainer.epochs")),
                "count");
}

}  // namespace perfbench
