// Streaming hot-path latency (ARCHITECTURE.md §8): ms per appended chunk
// of the memoized stream versus a plain Detect on every buffer it scores.
// The --json mode emits BENCH_streaming.json (schema
// triad-observability-v3; see bench/README.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/streaming.h"

namespace triad::core {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Periodic telemetry with recurring anomalous cycles — the steady-state
// monitoring workload. `burst_every_periods` sets the cadence: the --json
// feed uses a cadence shorter than the buffer so some burst is always in
// view (the selected window tracks it, a stable — and therefore cacheable —
// MERLIN region), while training and the microbenches keep bursts rare.
std::vector<double> StreamWorkload(size_t n, double period, uint64_t seed,
                                   double burst_every_periods = 40.0) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (size_t t = 0; t < n; ++t) {
    x[t] = std::sin(2.0 * kPi * static_cast<double>(t) / period) +
           rng.Normal(0.0, 0.05);
  }
  const size_t burst_gap = static_cast<size_t>(burst_every_periods * period);
  for (size_t at = burst_gap; at + period < n; at += burst_gap) {
    for (size_t t = at; t < at + static_cast<size_t>(period) / 2; ++t) {
      x[t] += rng.Normal(0.0, 0.7);
    }
  }
  return x;
}

// Small-but-real detector: same shape the streaming tests use, fitted once
// and shared by every leg.
TriadDetector MakeDetector(uint64_t seed) {
  TriadConfig config;
  config.depth = 2;
  config.hidden_dim = 8;
  config.epochs = 3;
  config.seed = seed;
  config.merlin_length_step = 4;
  TriadDetector detector(config);
  const std::vector<double> train = StreamWorkload(4096, 64.0, seed + 1);
  TRIAD_CHECK(detector.Fit(train).ok());
  return detector;
}

// ---- google-benchmark microbenches ----

void BM_StreamingAppend(benchmark::State& state) {
  static TriadDetector* detector = new TriadDetector(MakeDetector(5));
  const int64_t chunk = state.range(0);
  const std::vector<double> feed = StreamWorkload(16384, 64.0, 9);
  for (auto _ : state) {
    StreamingTriad stream(detector);
    for (size_t off = 0; off < feed.size();
         off += static_cast<size_t>(chunk)) {
      const size_t hi =
          std::min(feed.size(), off + static_cast<size_t>(chunk));
      auto events = stream.Append(std::vector<double>(
          feed.begin() + static_cast<long>(off),
          feed.begin() + static_cast<long>(hi)));
      TRIAD_CHECK(events.ok());
      benchmark::DoNotOptimize(events->size());
    }
  }
}
// A small and a large chunk; the --json mode records the A/B against a
// plain Detect per buffer.
BENCHMARK(BM_StreamingAppend)->Arg(256)->Arg(1024)->Unit(
    benchmark::kMillisecond);

// ---- --json mode: the memoized-stream-vs-recompute A/B record ----

struct LegTiming {
  double seconds = 0.0;
  int64_t chunks = 0;
  int64_t alarm_points = 0;
  int64_t passes = 0;
};

// A monitoring-sized buffer: 8 windows instead of the 4-window default, so
// most window positions are interior (their padded MERLIN regions are not
// clipped by the buffer edge and keep a stable global span — the cacheable
// case; see ARCHITECTURE.md §8).
StreamingOptions BenchStreamOptions(const TriadDetector& detector) {
  StreamingOptions options;
  options.buffer_length = 8 * detector.window_length();
  return options;
}

LegTiming RunStreamLeg(const TriadDetector& detector,
                       const std::vector<double>& feed,
                       const StreamingOptions& options, int64_t chunk) {
  StreamingTriad stream(&detector, options);
  LegTiming leg;
  Timer timer;
  for (size_t off = 0; off < feed.size(); off += static_cast<size_t>(chunk)) {
    const size_t hi = std::min(feed.size(), off + static_cast<size_t>(chunk));
    auto events = stream.Append(std::vector<double>(
        feed.begin() + static_cast<long>(off),
        feed.begin() + static_cast<long>(hi)));
    TRIAD_CHECK(events.ok());
    ++leg.chunks;
  }
  leg.seconds = timer.ElapsedSeconds();
  for (int v : stream.alarms()) leg.alarm_points += v;
  leg.passes = stream.passes();
  return leg;
}

// The memo-less reference: a plain Detect on every buffer a stream of this
// geometry scores (the last `buffer_length` points, every `hop` points once
// the buffer is full), flags OR-ed into a timeline. Its work depends only
// on the hop, not on how the feed is chunked.
LegTiming RunRecomputeLeg(const TriadDetector& detector,
                          const std::vector<double>& feed,
                          int64_t buffer_length, int64_t hop) {
  LegTiming leg;
  std::vector<int> alarms(feed.size(), 0);
  Timer timer;
  const int64_t n = static_cast<int64_t>(feed.size());
  for (int64_t end = std::max(buffer_length, hop); end <= n; end += hop) {
    const int64_t begin = end - buffer_length;
    auto pass = detector.Detect(
        std::vector<double>(feed.begin() + begin, feed.begin() + end));
    TRIAD_CHECK(pass.ok());
    ++leg.passes;
    for (size_t i = 0; i < pass->predictions.size(); ++i) {
      if (pass->predictions[i] != 0) {
        alarms[static_cast<size_t>(begin) + i] = 1;
      }
    }
  }
  leg.seconds = timer.ElapsedSeconds();
  for (int v : alarms) leg.alarm_points += v;
  return leg;
}

// One steady-state monitoring record: a TRIAD_BENCH_STREAM_POINTS-point
// stream (default 100k, the acceptance workload) appended at three chunk
// sizes, against one plain-Detect reference leg over the same buffers. The
// reference's work depends only on the hop, not the chunking, so a single
// leg prices every chunk size (its ms/chunk column just divides by the
// chunk count).
int RunJsonMode() {
  metrics::ScopedEnable enable(true);
  metrics::Registry::Global().ResetAll();
  Timer wall;

  const TriadDetector detector = MakeDetector(5);
  const int64_t points = GetEnvInt("TRIAD_BENCH_STREAM_POINTS", 100000);
  // Burst cadence (12 periods) < buffer span, so the selected window stays
  // locked on an anomalous region that is cached after its first pass.
  const std::vector<double> feed = StreamWorkload(
      static_cast<size_t>(points), 64.0, 9, /*burst_every_periods=*/12.0);
  const StreamingOptions options = BenchStreamOptions(detector);
  // For hop/buffer readout only — same options as the measured legs.
  const StreamingTriad probe(&detector, options);
  const int64_t hop = probe.hop();
  const std::vector<int64_t> chunks = {hop, 4 * hop, 16 * hop};

  const LegTiming full =
      RunRecomputeLeg(detector, feed, probe.buffer_length(), hop);
  std::vector<LegTiming> inc;
  for (int64_t chunk : chunks) {
    inc.push_back(RunStreamLeg(detector, feed, options, chunk));
    TRIAD_CHECK_MSG(inc.back().alarm_points == full.alarm_points &&
                        inc.back().passes == full.passes,
                    "memoized stream and plain Detect replay diverged");
  }

  // The memo counters cover the stream legs only: the reference leg runs
  // without a memo and touches none of them.
  const auto counter = [](const char* name) {
    return static_cast<double>(
        metrics::Registry::Global().counter(name)->value());
  };
  const double encode_hits = counter("streaming.encode_hits");
  const double encode_misses = counter("streaming.encode_misses");
  const double merlin_hits = counter("streaming.merlin_hits");
  const double merlin_misses = counter("streaming.merlin_misses");

  std::vector<std::pair<std::string, double>> extras = {
      {"stream_points", static_cast<double>(points)},
      {"buffer_length", static_cast<double>(probe.buffer_length())},
      {"hop", static_cast<double>(hop)},
      {"passes_per_leg", static_cast<double>(full.passes)},
      {"alarm_points", static_cast<double>(full.alarm_points)},
      {"recompute_total_seconds", full.seconds},
      {"encode_hit_rate", encode_hits + encode_misses > 0
                              ? encode_hits / (encode_hits + encode_misses)
                              : 0.0},
      {"merlin_hit_rate", merlin_hits + merlin_misses > 0
                              ? merlin_hits / (merlin_hits + merlin_misses)
                              : 0.0},
  };
  for (size_t k = 0; k < chunks.size(); ++k) {
    const std::string tag = "chunk_" + std::to_string(chunks[k]);
    const double inc_ms = 1e3 * inc[k].seconds /
                          static_cast<double>(inc[k].chunks);
    const double full_ms = 1e3 * full.seconds /
                           static_cast<double>(inc[k].chunks);
    extras.push_back({tag + "_incremental_ms_per_chunk", inc_ms});
    extras.push_back({tag + "_recompute_ms_per_chunk", full_ms});
    extras.push_back({tag + "_speedup", full_ms / inc_ms});
  }
  bench::WriteBenchJson("streaming", wall.ElapsedSeconds(), extras);
  return 0;
}

}  // namespace
}  // namespace triad::core

// google-benchmark's BENCHMARK_MAIN rejects flags it does not know, so the
// --json mode is dispatched before benchmark::Initialize ever sees argv.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == std::string("--json")) {
      return triad::core::RunJsonMode();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
