// Design-choice ablations for the discord substrate (DESIGN.md §4):
// MASS (FFT) versus naive distance profiles, the detector's nearest-window
// scan versus a MASS profile, DRAG phase-2 linear scan versus the
// Orchard-ordered scan that powers MERLIN++, and MERLIN versus the exact
// per-length sweep the detector runs (ExactDiscords).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/timer.h"
#include "discord/discord.h"
#include "discord/mass.h"
#include "discord/stomp.h"

namespace triad::discord {
namespace {

constexpr double kPi = 3.14159265358979323846;

std::vector<double> Workload(size_t n, uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (size_t t = 0; t < n; ++t) {
    x[t] = std::sin(2.0 * kPi * static_cast<double>(t) / 50.0) +
           rng.Normal(0.0, 0.05);
  }
  // Planted anomaly in the middle.
  for (size_t t = n / 2; t < n / 2 + 50 && t < n; ++t) {
    x[t] = std::sin(4.0 * kPi * static_cast<double>(t) / 50.0) +
           rng.Normal(0.0, 0.05);
  }
  return x;
}

void BM_MassDistanceProfile(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  const std::vector<double> query(x.begin(), x.begin() + 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MassDistanceProfile(x, query));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MassDistanceProfile)->Arg(1000)->Arg(2000)->Arg(4000)->Arg(8000)
    ->Complexity(benchmark::oNLogN);

void BM_NaiveDistanceProfile(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  const int64_t m = 100;
  const RollingStats stats = ComputeRollingStats(x, m);
  for (auto _ : state) {
    std::vector<double> profile;
    const int64_t count = static_cast<int64_t>(x.size()) - m + 1;
    profile.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      profile.push_back(ZNormDistanceEarlyAbandon(
          x.data(), stats.mean[0], stats.stddev[0], x.data() + i,
          stats.mean[static_cast<size_t>(i)],
          stats.stddev[static_cast<size_t>(i)], m, 1e18));
    }
    benchmark::DoNotOptimize(profile);
  }
  state.SetComplexityN(state.range(0));
}
// O(N·m) per profile: a scalar early-abandon loop over every window.
BENCHMARK(BM_NaiveDistanceProfile)->Arg(1000)->Arg(2000)->Arg(4000)
    ->Complexity(benchmark::oN);

// The detector's selection stage: one candidate window's nearest distance
// to a training series of n points, at window length m. The MASS leg is
// the path the detector took before NearestWindowIndex — a held context
// (series spectrum and prefix sums cached) giving a full profile, then
// its minimum; the scan leg is NearestWindowIndex::NearestDistance. The
// query is a window of a different series, as a test window would be.
std::vector<double> SelectionQuery(int64_t m) {
  const std::vector<double> other = Workload(static_cast<size_t>(m), 7);
  return other;
}

void BM_NearestWindowMass(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  const std::vector<double> query = SelectionQuery(state.range(1));
  const MassContext train(x);
  for (auto _ : state) {
    const std::vector<double> profile = train.DistanceProfile(query);
    benchmark::DoNotOptimize(*std::min_element(profile.begin(), profile.end()));
  }
}
BENCHMARK(BM_NearestWindowMass)
    ->ArgsProduct({{4096, 16384, 65536}, {40, 160, 400, 1000}})
    ->Unit(benchmark::kMicrosecond);

void BM_NearestWindowScan(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  const std::vector<double> query = SelectionQuery(state.range(1));
  const NearestWindowIndex train(x, state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(train.NearestDistance(query));
  }
}
BENCHMARK(BM_NearestWindowScan)
    ->ArgsProduct({{4096, 16384, 65536}, {40, 160, 400, 1000}})
    ->Unit(benchmark::kMicrosecond);

void BM_BruteForceDiscord(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BruteForceDiscord(x, 50));
  }
}
BENCHMARK(BM_BruteForceDiscord)->Arg(1000)->Arg(2000);

void BM_StompMatrixProfile(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Stomp(x, 50));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StompMatrixProfile)->Arg(1000)->Arg(2000)->Arg(4000)
    ->Complexity(benchmark::oNSquared);

void BM_Merlin(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Merlin(x, 40, 60, 5));
  }
}
BENCHMARK(BM_Merlin)->Arg(1000)->Arg(2000)->Arg(4000);

void BM_MerlinPlusPlus(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerlinPlusPlus(x, 40, 60, 5));
  }
}
BENCHMARK(BM_MerlinPlusPlus)->Arg(1000)->Arg(2000)->Arg(4000);

// The TriAD regime: discord search restricted to a ~3-window region.
void BM_MerlinRestrictedRegion(benchmark::State& state) {
  const std::vector<double> x = Workload(8000);
  const std::vector<double> region(x.begin() + 3800, x.begin() + 4300);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Merlin(region, 10, 120, 2));
  }
}
BENCHMARK(BM_MerlinRestrictedRegion);

// The detector's stage-3 shape at growing region sizes n: a region of
// three windows searched at lengths 4 .. one window (n/3, at most n/2 - 1)
// every 4th length. discord::ExactDiscords is what the detector runs;
// Merlin is the DRAG r-ladder it replaced. Registered side by side up to
// n = 3000 to show there is no region size where the ladder wins.
int64_t RegionMaxLength(int64_t n) { return std::min(n / 3, n / 2 - 1); }

void BM_RegionMerlin(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Merlin(x, 4, RegionMaxLength(state.range(0)), 4));
  }
}
BENCHMARK(BM_RegionMerlin)->Arg(120)->Arg(480)->Arg(960)->Arg(1500)
    ->Arg(3000)->Unit(benchmark::kMillisecond);

void BM_RegionExactDiscords(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExactDiscords(x, 4, RegionMaxLength(state.range(0)), 4));
  }
}
BENCHMARK(BM_RegionExactDiscords)->Arg(120)->Arg(480)->Arg(960)->Arg(1500)
    ->Arg(3000)->Unit(benchmark::kMillisecond);

// A noisier series (sigma 0.1) with the anomaly sliced out: with no true
// discord present, nearest-neighbour distances bunch together, the range
// ladder descends further, and DRAG's phases do real pruning work. This is
// the adversarial end of the sweep — the clean sine above is nearly free
// by comparison — and the workload where the amortization stack (FFT plan
// cache, series-spectrum reuse, reference-index pruning; ARCHITECTURE.md
// §7) is measured end to end.
std::vector<double> NoisySweepSeries() {
  Rng rng(3);
  std::vector<double> x(8000);
  for (size_t t = 0; t < x.size(); ++t) {
    x[t] = std::sin(2.0 * kPi * static_cast<double>(t) / 50.0) +
           rng.Normal(0.0, 0.1);
  }
  return std::vector<double>(x.begin(), x.begin() + 4000);
}

void BM_MerlinNoisySweep(benchmark::State& state) {
  const std::vector<double> x = NoisySweepSeries();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Merlin(x, 40, 60, 5));
  }
}
BENCHMARK(BM_MerlinNoisySweep)->Unit(benchmark::kMillisecond);

// --json mode: the region sweep (Merlin vs ExactDiscords at step 4,
// ExactDiscords alone at step 1) and the selection-stage comparison (MASS
// profile vs nearest-window scan) as a machine-readable record, with the
// FFT plan and spectrum cache counters, in BENCH_discord.json (schema
// triad-observability-v3; see bench/README.md). Fixed iteration counts
// keep the record cheap and the workload identical across runs.
int RunJsonMode() {
  metrics::ScopedEnable enable(true);
  metrics::Registry::Global().ResetAll();
  Timer wall;

  // Region sweep, Merlin vs ExactDiscords (the BM_Region* pair above):
  // one timed call of each per region size at step 4, plus ExactDiscords
  // at step 1, the detector's default (merlin_length_step = 1).
  std::vector<std::pair<std::string, double>> region_fields;
  for (int64_t n : {120, 480, 960, 1500, 3000}) {
    const std::vector<double> x = Workload(static_cast<size_t>(n));
    const int64_t max_len = RegionMaxLength(n);
    Timer merlin_timer;
    auto merlin = Merlin(x, 4, max_len, 4);
    const double merlin_s = merlin_timer.ElapsedSeconds();
    Timer exact_timer;
    auto exact = ExactDiscords(x, 4, max_len, 4);
    const double exact_s = exact_timer.ElapsedSeconds();
    Timer step1_timer;
    auto step1 = ExactDiscords(x, 4, max_len, 1);
    const double step1_s = step1_timer.ElapsedSeconds();
    TRIAD_CHECK(merlin.ok() && exact.ok() && step1.ok());
    TRIAD_CHECK(merlin->discords.size() == exact->discords.size());
    const std::string key = "region_" + std::to_string(n);
    region_fields.push_back({key + "_merlin_seconds", merlin_s});
    region_fields.push_back({key + "_exact_seconds", exact_s});
    region_fields.push_back({key + "_exact_speedup", merlin_s / exact_s});
    region_fields.push_back({key + "_exact_step1_seconds", step1_s});
  }

  // Selection stage, MASS profile vs nearest-window scan (the
  // BM_NearestWindow* pair above): mean seconds per call over a fixed
  // iteration count that shrinks with n.
  std::vector<std::pair<std::string, double>> nearest_fields;
  for (int64_t n : {4096, 16384, 65536}) {
    const std::vector<double> x = Workload(static_cast<size_t>(n));
    const MassContext mass(x);
    const int iters = static_cast<int>(std::max<int64_t>(4, 262144 / n));
    for (int64_t m : {40, 160, 400, 1000}) {
      const std::vector<double> q = SelectionQuery(m);
      const NearestWindowIndex index(x, m);
      benchmark::DoNotOptimize(mass.DistanceProfile(q));  // cache spectrum
      double mass_min = 0.0, scan_min = 0.0;
      Timer mass_timer;
      for (int iter = 0; iter < iters; ++iter) {
        const std::vector<double> profile = mass.DistanceProfile(q);
        mass_min = *std::min_element(profile.begin(), profile.end());
      }
      const double mass_s = mass_timer.ElapsedSeconds() / iters;
      Timer scan_timer;
      for (int iter = 0; iter < iters; ++iter) {
        scan_min = index.NearestDistance(q);
      }
      const double scan_s = scan_timer.ElapsedSeconds() / iters;
      TRIAD_CHECK(std::abs(mass_min - scan_min) <= 1e-6 * scan_min);
      const std::string key =
          "nearest_" + std::to_string(n) + "_" + std::to_string(m);
      nearest_fields.push_back({key + "_mass_seconds", mass_s});
      nearest_fields.push_back({key + "_scan_seconds", scan_s});
      nearest_fields.push_back({key + "_scan_speedup", mass_s / scan_s});
    }
  }

  const auto counter = [](const char* name) {
    return static_cast<double>(
        metrics::Registry::Global().counter(name)->value());
  };
  std::vector<std::pair<std::string, double>> fields = {
      {"fft_plan_hits", counter("fft.plan_hits")},
      {"fft_plan_misses", counter("fft.plan_misses")},
      {"mass_spectrum_hits", counter("mass.spectrum_hits")},
      {"mass_spectrum_misses", counter("mass.spectrum_misses")}};
  fields.insert(fields.end(), region_fields.begin(), region_fields.end());
  fields.insert(fields.end(), nearest_fields.begin(), nearest_fields.end());
  bench::WriteBenchJson("discord", wall.ElapsedSeconds(), fields);
  return 0;
}

}  // namespace
}  // namespace triad::discord

// google-benchmark's BENCHMARK_MAIN rejects flags it does not know, so the
// --json mode is dispatched before benchmark::Initialize ever sees argv.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == std::string("--json")) {
      return triad::discord::RunJsonMode();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
