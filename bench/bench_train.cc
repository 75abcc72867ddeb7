// Training-loop throughput and thread scaling (ARCHITECTURE.md §11). The
// --json mode trains the SAME job twice — on a 1-lane pool and on the
// default pool — aborts unless the two loss trajectories are bit-identical
// (every nn kernel keeps a fixed per-element accumulation order at any lane
// count), and emits BENCH_train.json with both walls, each leg's per-phase
// breakdown, the lane count and the speedup. Sized by
// TRIAD_BENCH_TRAIN_{WINDOWS,LEN,EPOCHS,DEPTH,HIDDEN} for archive-scale runs.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/config.h"
#include "core/model.h"
#include "core/trainer.h"

namespace triad::core {
namespace {

constexpr double kPi = 3.14159265358979323846;

std::vector<std::vector<double>> TrainWindows(int64_t count, size_t len,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> windows;
  windows.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    std::vector<double> w(len);
    for (size_t t = 0; t < len; ++t) {
      w[t] = std::sin(2.0 * kPi * static_cast<double>(t) / 64.0) +
             rng.Normal(0.0, 0.05);
    }
    windows.push_back(std::move(w));
  }
  return windows;
}

TriadConfig BenchConfig(int64_t epochs) {
  TriadConfig config;
  config.depth = static_cast<int>(GetEnvInt("TRIAD_BENCH_TRAIN_DEPTH", 2));
  config.hidden_dim =
      static_cast<int>(GetEnvInt("TRIAD_BENCH_TRAIN_HIDDEN", 16));
  config.epochs = static_cast<int>(epochs);
  config.batch_size = 8;
  config.seed = 7;
  config.validation_fraction = 0.0;
  return config;
}

TrainStats FitOnce(const TriadConfig& config,
                   const std::vector<std::vector<double>>& windows) {
  Rng rng(config.seed);
  TriadModel model(config, &rng);
  TriadTrainer trainer(config);
  auto stats = trainer.Fit(windows, /*period=*/64, &model, &rng);
  TRIAD_CHECK(stats.ok());
  return *stats;
}

// ---- google-benchmark microbenches ----

// One full training epoch on the default pool.
void BM_TrainEpoch(benchmark::State& state) {
  const auto windows = TrainWindows(16, 256, 11);
  const TriadConfig config = BenchConfig(/*epochs=*/1);
  for (auto _ : state) {
    TrainStats stats = FitOnce(config, windows);
    benchmark::DoNotOptimize(stats.epoch_train_loss);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(windows.size()));
}
BENCHMARK(BM_TrainEpoch)->Unit(benchmark::kMillisecond);

// ---- --json mode: the 1-lane vs default-pool record ----

// The summed duration of every span named `name` so far: a span records
// into the registry histogram of its name. A leg's phase time is the
// difference across the leg.
double SpanTotal(const std::string& name) {
  return metrics::Registry::Global().histogram(name)->sum();
}

struct Leg {
  TrainStats stats;
  double seconds = 0.0;
};

// One timed training run on the current default pool. Appends the leg's
// wall and its trainer.cc phase spans to `extras` under `name`; forward
// includes the nested features time.
Leg TimedFit(const TriadConfig& config,
             const std::vector<std::vector<double>>& windows,
             const std::string& name,
             std::vector<std::pair<std::string, double>>* extras) {
  const std::vector<std::string> phases = {"forward", "backward", "features",
                                           "augment", "step"};
  std::vector<double> before;
  for (const std::string& phase : phases) {
    before.push_back(SpanTotal("trainer." + phase));
  }
  Leg leg;
  Timer timer;
  leg.stats = FitOnce(config, windows);
  leg.seconds = timer.ElapsedSeconds();
  extras->emplace_back(name + "_seconds", leg.seconds);
  for (size_t i = 0; i < phases.size(); ++i) {
    extras->emplace_back(name + "_" + phases[i] + "_seconds",
                         SpanTotal("trainer." + phases[i]) - before[i]);
  }
  return leg;
}

int RunJsonMode() {
  metrics::ScopedEnable enable(true);
  Timer wall;
  const int64_t n_windows = GetEnvInt("TRIAD_BENCH_TRAIN_WINDOWS", 32);
  const int64_t len = GetEnvInt("TRIAD_BENCH_TRAIN_LEN", 256);
  const int64_t epochs = GetEnvInt("TRIAD_BENCH_TRAIN_EPOCHS", 2);
  const auto windows =
      TrainWindows(n_windows, static_cast<size_t>(len), 11);
  const TriadConfig config = BenchConfig(epochs);
  ThreadPool one_lane(1);
  const int64_t lanes = DefaultPool()->num_threads();

  // Untimed warm-up trains on both pools once (pool spin-up, page faults)
  // so the legs compare steady-state kernels, not first-touch.
  {
    ScopedDefaultPool scoped(&one_lane);
    FitOnce(config, windows);
  }
  FitOnce(config, windows);

  std::vector<std::pair<std::string, double>> extras = {
      {"train_windows", static_cast<double>(n_windows)},
      {"window_len", static_cast<double>(len)},
      {"epochs", static_cast<double>(epochs)},
      {"depth", static_cast<double>(config.depth)},
      {"hidden_dim", static_cast<double>(config.hidden_dim)},
      {"lanes", static_cast<double>(lanes)},
  };
  Leg serial;
  {
    ScopedDefaultPool scoped(&one_lane);
    serial = TimedFit(config, windows, "serial", &extras);
  }
  const Leg pooled = TimedFit(config, windows, "pooled", &extras);

  // Acceptance gate: the speedup is only reportable if the two runs did
  // bit-identical work (ARCHITECTURE.md §11).
  TRIAD_CHECK_EQ(serial.stats.epoch_train_loss.size(),
                 pooled.stats.epoch_train_loss.size());
  for (size_t e = 0; e < serial.stats.epoch_train_loss.size(); ++e) {
    TRIAD_CHECK_MSG(
        serial.stats.epoch_train_loss[e] == pooled.stats.epoch_train_loss[e],
        "1-lane/" << lanes << "-lane loss diverged at epoch " << e);
  }

  const double total_windows =
      static_cast<double>(n_windows) * static_cast<double>(epochs);
  extras.insert(
      extras.end(),
      {{"serial_windows_per_sec", total_windows / serial.seconds},
       {"pooled_windows_per_sec", total_windows / pooled.seconds},
       {"speedup", serial.seconds / pooled.seconds},
       {"final_train_loss", pooled.stats.epoch_train_loss.back()},
       {"trajectories_bit_identical", 1.0}});
  bench::WriteBenchJson("train", wall.ElapsedSeconds(), extras);
  return 0;
}

}  // namespace
}  // namespace triad::core

// --json mode is dispatched before benchmark::Initialize ever sees argv.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == std::string("--json")) {
      return triad::core::RunJsonMode();
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
