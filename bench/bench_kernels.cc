// SIMD kernel layer throughput: every dispatched kernel measured at the
// scalar tier and at the best tier the host supports (see
// ARCHITECTURE.md §4). The first argument is the simd::Level; workloads
// use sizes taken from the real call sites — the encoder's conv shapes
// (second argument: the paper-scale block or the one archive_batch
// trains), the projection head's GEMMs on ReLU'd activations, MASS/STOMP
// profile rows at bench scale, and the similarity scan's unit-vector
// dots. bench/README.md records the numbers.
//
// The nn kernels fan their rows across the default pool; their benches pin
// a 1-lane pool so the tier comparison stays single lane at any
// TRIAD_NUM_THREADS.
//
// Determinism note: these benches measure speed only — the equivalence
// guarantees (bit-identity for elementwise kernels, <= 4 ULP for
// reductions) are asserted in tests/kernel_equivalence_test.cc.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/detector.h"
#include "data/ucr_generator.h"
#include "nn/kernels.h"

namespace triad::bench {
namespace {

// Skips the benchmark when asked for a tier the host cannot run.
bool SetLevelOrSkip(benchmark::State& state, simd::Level* level) {
  *level = static_cast<simd::Level>(state.range(0));
  if (*level > simd::HighestSupportedLevel()) {
    state.SkipWithError("SIMD level not supported on this host");
    return false;
  }
  state.SetLabel(simd::LevelName(*level));
  return true;
}

std::vector<float> RandomFloats(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(static_cast<size_t>(n));
  for (auto& v : x) v = static_cast<float>(rng.Normal(0.0, 1.0));
  return x;
}

std::vector<double> RandomDoubles(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<size_t>(n));
  for (auto& v : x) v = rng.Normal(0.0, 1.0);
  return x;
}

// Dot product at the similarity-scan length (windows are ~160-sample unit
// vectors at bench scale; 4096 shows the long-vector regime).
void BM_Dot(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t n = state.range(1);
  const std::vector<float> a = RandomFloats(n, 1);
  const std::vector<float> b = RandomFloats(n, 2);
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::Dot(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Dot)
    ->ArgsProduct({{0, 1}, {160, 4096}})
    ->Unit(benchmark::kNanosecond);

// Axpy at a conv row length (the inner op of conv forward / backward-input
// and of the dense matmul).
void BM_Axpy(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t n = state.range(1);
  const std::vector<float> x = RandomFloats(n, 3);
  std::vector<float> y = RandomFloats(n, 4);
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    simd::Axpy(1.0009f, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Axpy)
    ->ArgsProduct({{0, 1}, {160, 4096}})
    ->Unit(benchmark::kNanosecond);

void BM_Relu(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t n = 4096;
  const std::vector<float> x = RandomFloats(n, 5);
  std::vector<float> y(static_cast<size_t>(n));
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    simd::Relu(x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Relu)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);

// The conv shapes the benches run, picked by the second argument:
// 0 = the paper-scale encoder block (batch 8, 32 -> 32 channels, K=3,
// L=160 = 2.5 periods at bench scale, dilation 4); 1 = the block
// archive_batch trains (batch 8, 16 -> 16 channels, K=3, L=143,
// dilation 2).
struct ConvBenchShape {
  int64_t B, Cin, Cout, K, Lout, dilation;
  int64_t Lpad() const { return Lout + dilation * (K - 1); }
  int64_t Macs() const { return B * Cout * Cin * K * Lout; }
};
constexpr ConvBenchShape kConvShapes[] = {{8, 32, 32, 3, 160, 4},
                                          {8, 16, 16, 3, 143, 2}};
constexpr ConvBenchShape kArchiveConv = kConvShapes[1];

// The projection head archive_batch trains: m = B*L = 8*143 rows, hidden
// 16, n = 16 (head1) or 1 (head2).
constexpr int64_t kHeadRows = 8 * 143;
constexpr int64_t kHeadHidden = 16;

// What a ReLU leaves: about half the entries exact zeros.
std::vector<float> ReluFloats(int64_t n, uint64_t seed) {
  std::vector<float> x = RandomFloats(n, seed);
  for (auto& v : x) v = v > 0.0f ? v : 0.0f;
  return x;
}

void BM_Conv1dForward(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const ConvBenchShape& s = kConvShapes[state.range(1)];
  const std::vector<float> xpad = RandomFloats(s.B * s.Cin * s.Lpad(), 6);
  const std::vector<float> w = RandomFloats(s.Cout * s.Cin * s.K, 7);
  std::vector<float> out(static_cast<size_t>(s.B * s.Cout * s.Lout));
  simd::ScopedForceLevel force(level);
  ThreadPool one_lane(1);
  ScopedDefaultPool scoped(&one_lane);
  for (auto _ : state) {
    nn::kernels::Conv1dForward(xpad.data(), w.data(), /*bias=*/nullptr,
                               out.data(), s.B, s.Cin, s.Cout, s.K, s.Lpad(),
                               s.Lout, s.dilation);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * s.Macs());
}
BENCHMARK(BM_Conv1dForward)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// Input gradient (the adjoint scatter) at the same shapes.
void BM_Conv1dBackwardInput(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const ConvBenchShape& s = kConvShapes[state.range(1)];
  const std::vector<float> g = RandomFloats(s.B * s.Cout * s.Lout, 8);
  const std::vector<float> w = RandomFloats(s.Cout * s.Cin * s.K, 7);
  std::vector<float> gx(static_cast<size_t>(s.B * s.Cin * s.Lpad()));
  simd::ScopedForceLevel force(level);
  ThreadPool one_lane(1);
  ScopedDefaultPool scoped(&one_lane);
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0f);
    nn::kernels::Conv1dBackwardInput(g.data(), w.data(), gx.data(), s.B,
                                     s.Cin, s.Cout, s.K, s.Lpad(), s.Lout,
                                     s.dilation);
    benchmark::DoNotOptimize(gx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * s.Macs());
}
BENCHMARK(BM_Conv1dBackwardInput)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// Weight gradient (dot-reduction kernel) at the same shapes.
void BM_Conv1dBackwardWeight(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const ConvBenchShape& s = kConvShapes[state.range(1)];
  const std::vector<float> xpad = RandomFloats(s.B * s.Cin * s.Lpad(), 8);
  const std::vector<float> g = RandomFloats(s.B * s.Cout * s.Lout, 9);
  std::vector<float> gw(static_cast<size_t>(s.Cout * s.Cin * s.K));
  simd::ScopedForceLevel force(level);
  ThreadPool one_lane(1);
  ScopedDefaultPool scoped(&one_lane);
  for (auto _ : state) {
    std::fill(gw.begin(), gw.end(), 0.0f);
    nn::kernels::Conv1dBackwardWeight(g.data(), xpad.data(), gw.data(), s.B,
                                      s.Cin, s.Cout, s.K, s.Lpad(), s.Lout,
                                      s.dilation);
    benchmark::DoNotOptimize(gw.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * s.Macs());
}
BENCHMARK(BM_Conv1dBackwardWeight)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// The projection head's forward GEMMs on a ReLU'd left operand (half its
// entries exact zeros, which every output row skips): n = 16 (head1) and
// n = 1 (head2).
void BM_Gemm(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t m = kHeadRows, k = kHeadHidden, n = state.range(1);
  const std::vector<float> a = ReluFloats(m * k, 16);
  const std::vector<float> b = RandomFloats(k * n, 17);
  std::vector<float> c(static_cast<size_t>(m * n));
  simd::ScopedForceLevel force(level);
  ThreadPool one_lane(1);
  ScopedDefaultPool scoped(&one_lane);
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.0f);
    nn::kernels::Gemm(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_Gemm)
    ->ArgsProduct({{0, 1}, {16, 1}})
    ->Unit(benchmark::kMicrosecond);

// The projection-head matmul gradient path (C += A B^T row dots).
void BM_GemmTransB(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t m = 8, n = 160, k = 32;
  const std::vector<float> a = RandomFloats(m * n, 10);
  const std::vector<float> b = RandomFloats(k * n, 11);
  std::vector<float> c(static_cast<size_t>(m * k));
  simd::ScopedForceLevel force(level);
  ThreadPool one_lane(1);
  ScopedDefaultPool scoped(&one_lane);
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.0f);
    nn::kernels::GemmTransB(a.data(), b.data(), c.data(), m, n, k);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}
BENCHMARK(BM_GemmTransB)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// STOMP's per-row O(n) update at a 16k-series profile width.
void BM_SlidingDotUpdate(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t n = 16384 - 64 + 1;
  const std::vector<double> series = RandomDoubles(16384, 12);
  std::vector<double> qt = RandomDoubles(n, 13);
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    simd::SlidingDotUpdate(qt.data(), n, series[0], series.data(), series[64],
                           series.data() + 64);
    benchmark::DoNotOptimize(qt.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SlidingDotUpdate)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// MASS/STOMP dot -> z-normalized distance conversion at the same width.
void BM_ZNormDistRow(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t n = 16384 - 64 + 1, m = 64;
  const std::vector<double> dot = RandomDoubles(n, 14);
  std::vector<double> mu = RandomDoubles(n, 15);
  std::vector<double> sd(static_cast<size_t>(n), 1.25);
  std::vector<double> out(static_cast<size_t>(n));
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    simd::ZNormDistRow(dot.data(), mu.data(), sd.data(), 0.1, 0.9, m,
                       out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ZNormDistRow)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// End to end: full train + detect on a generated dataset, per tier. This
// is the number bench/README.md records as the kernel layer's bottom-line
// effect (training is conv/matmul bound; detection adds the similarity
// scan and the discord search).
void BM_TrainDetectEndToEnd(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  data::UcrGeneratorOptions gen;
  gen.count = 1;
  gen.seed = 54;
  gen.min_period = 32;
  gen.max_period = 40;
  gen.min_train_periods = 14;
  gen.max_train_periods = 16;
  gen.min_test_periods = 10;
  gen.max_test_periods = 12;
  gen.severity = 1.0;
  Rng rng(gen.seed);
  const data::UcrDataset ds = data::MakeUcrDataset(
      gen, 0, data::AnomalyType::kSeasonal, "sine", &rng);
  core::TriadConfig config;
  config.depth = 4;
  config.hidden_dim = 32;
  config.epochs = 4;
  config.seed = 17;
  config.merlin_length_step = 4;
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    core::TriadDetector detector(config);
    TRIAD_CHECK(detector.Fit(ds.train).ok());
    auto result = detector.Detect(ds.test);
    TRIAD_CHECK(result.ok());
    benchmark::DoNotOptimize(result->votes);
  }
}
BENCHMARK(BM_TrainDetectEndToEnd)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// --json mode: one fixed-size pass over the kernel hot paths plus the full
// train+detect pipeline, recorded through the observability layer and
// emitted as BENCH_kernels.json (schema in bench/README.md) — the record
// CI validates and the perf trajectory tracks PR-over-PR. Fixed iteration
// counts instead of google-benchmark's adaptive timing keep the record
// cheap and the workload identical across runs.
int RunJsonMode() {
  metrics::ScopedEnable enable(true);
  metrics::Registry::Global().ResetAll();
  Timer wall;

  {
    trace::TraceSpan span("kernel.dot");
    const int64_t n = 4096;
    const std::vector<float> a = RandomFloats(n, 1);
    const std::vector<float> b = RandomFloats(n, 2);
    for (int iter = 0; iter < 2000; ++iter) {
      benchmark::DoNotOptimize(simd::Dot(a.data(), b.data(), n));
    }
  }
  // One span per conv/GEMM kernel, each at the shape archive_batch trains
  // and on a 1-lane pool, with a fixed iteration count.
  {
    ThreadPool one_lane(1);
    ScopedDefaultPool scoped(&one_lane);
    const ConvBenchShape& s = kArchiveConv;
    const std::vector<float> xpad = RandomFloats(s.B * s.Cin * s.Lpad(), 6);
    const std::vector<float> w = RandomFloats(s.Cout * s.Cin * s.K, 7);
    const std::vector<float> g = RandomFloats(s.B * s.Cout * s.Lout, 9);
    std::vector<float> out(static_cast<size_t>(s.B * s.Cout * s.Lout));
    std::vector<float> gx(static_cast<size_t>(s.B * s.Cin * s.Lpad()));
    std::vector<float> gw(static_cast<size_t>(s.Cout * s.Cin * s.K));
    std::vector<float> gb(static_cast<size_t>(s.Cout));
    constexpr int kConvIters = 200;
    {
      trace::TraceSpan span("kernel.conv1d_forward");
      for (int iter = 0; iter < kConvIters; ++iter) {
        nn::kernels::Conv1dForward(xpad.data(), w.data(), /*bias=*/nullptr,
                                   out.data(), s.B, s.Cin, s.Cout, s.K,
                                   s.Lpad(), s.Lout, s.dilation);
        benchmark::DoNotOptimize(out.data());
      }
    }
    {
      trace::TraceSpan span("kernel.conv1d_backward_input");
      for (int iter = 0; iter < kConvIters; ++iter) {
        nn::kernels::Conv1dBackwardInput(g.data(), w.data(), gx.data(), s.B,
                                         s.Cin, s.Cout, s.K, s.Lpad(), s.Lout,
                                         s.dilation);
        benchmark::DoNotOptimize(gx.data());
      }
    }
    {
      trace::TraceSpan span("kernel.conv1d_backward_weight");
      for (int iter = 0; iter < kConvIters; ++iter) {
        nn::kernels::Conv1dBackwardWeight(g.data(), xpad.data(), gw.data(),
                                          s.B, s.Cin, s.Cout, s.K, s.Lpad(),
                                          s.Lout, s.dilation);
        benchmark::DoNotOptimize(gw.data());
      }
    }
    {
      trace::TraceSpan span("kernel.conv1d_backward_bias");
      for (int iter = 0; iter < kConvIters; ++iter) {
        nn::kernels::Conv1dBackwardBias(g.data(), gb.data(), s.B, s.Cout,
                                        s.Lout);
        benchmark::DoNotOptimize(gb.data());
      }
    }

    // The head's GEMMs, n = 16 (head1) then n = 1 (head2) in each span:
    // forward on the ReLU'd activations, the weight gradient reading them
    // as A^T, and the input gradient.
    const int64_t m = kHeadRows, k = kHeadHidden;
    const std::vector<float> act = ReluFloats(m * k, 16);
    const std::vector<float> wt = RandomFloats(k * k, 17);
    const std::vector<float> gout = RandomFloats(m * k, 18);
    std::vector<float> y(static_cast<size_t>(m * k));
    std::vector<float> dw(static_cast<size_t>(k * k));
    std::vector<float> dx(static_cast<size_t>(m * k));
    constexpr int kGemmIters = 500;
    {
      trace::TraceSpan span("kernel.gemm");
      for (int iter = 0; iter < kGemmIters; ++iter) {
        for (const int64_t n : {k, int64_t{1}}) {
          nn::kernels::Gemm(act.data(), wt.data(), y.data(), m, k, n);
        }
        benchmark::DoNotOptimize(y.data());
      }
    }
    {
      trace::TraceSpan span("kernel.gemm_trans_a");
      for (int iter = 0; iter < kGemmIters; ++iter) {
        for (const int64_t n : {k, int64_t{1}}) {
          nn::kernels::GemmTransA(act.data(), gout.data(), dw.data(), k, m, n);
        }
        benchmark::DoNotOptimize(dw.data());
      }
    }
    {
      trace::TraceSpan span("kernel.gemm_trans_b");
      for (int iter = 0; iter < kGemmIters; ++iter) {
        for (const int64_t n : {k, int64_t{1}}) {
          nn::kernels::GemmTransB(gout.data(), wt.data(), dx.data(), m, n, k);
        }
        benchmark::DoNotOptimize(dx.data());
      }
    }
  }
  {
    trace::TraceSpan span("kernel.znorm_dist_row");
    const int64_t n = 16384 - 64 + 1, m = 64;
    const std::vector<double> dot = RandomDoubles(n, 14);
    const std::vector<double> mu = RandomDoubles(n, 15);
    const std::vector<double> sd(static_cast<size_t>(n), 1.25);
    std::vector<double> out(static_cast<size_t>(n));
    for (int iter = 0; iter < 200; ++iter) {
      simd::ZNormDistRow(dot.data(), mu.data(), sd.data(), 0.1, 0.9, m,
                         out.data(), n);
      benchmark::DoNotOptimize(out.data());
    }
  }

  // End-to-end pipeline pass (same workload as BM_TrainDetectEndToEnd);
  // this populates the detector/trainer/merlin spans and the mass/stomp/
  // parallel instruments.
  double train_detect_seconds;
  {
    trace::TraceSpan span("bench.train_detect");
    data::UcrGeneratorOptions gen;
    gen.count = 1;
    gen.seed = 54;
    gen.min_period = 32;
    gen.max_period = 40;
    gen.min_train_periods = 14;
    gen.max_train_periods = 16;
    gen.min_test_periods = 10;
    gen.max_test_periods = 12;
    gen.severity = 1.0;
    Rng rng(gen.seed);
    const data::UcrDataset ds = data::MakeUcrDataset(
        gen, 0, data::AnomalyType::kSeasonal, "sine", &rng);
    core::TriadConfig config;
    config.depth = 4;
    config.hidden_dim = 32;
    config.epochs = 4;
    config.seed = 17;
    config.merlin_length_step = 4;
    core::TriadDetector detector(config);
    TRIAD_CHECK(detector.Fit(ds.train).ok());
    auto result = detector.Detect(ds.test);
    TRIAD_CHECK(result.ok());
    benchmark::DoNotOptimize(result->votes);
    train_detect_seconds = span.Stop();
  }

  WriteBenchJson("kernels", wall.ElapsedSeconds(),
                 {{"train_detect_seconds", train_detect_seconds}});
  return 0;
}

}  // namespace
}  // namespace triad::bench

// google-benchmark's BENCHMARK_MAIN rejects flags it does not know, so the
// --json mode is dispatched before benchmark::Initialize ever sees argv.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == std::string("--json")) {
      return triad::bench::RunJsonMode();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
