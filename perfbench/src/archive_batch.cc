// archive_batch: the offline analyst path and the paper's Table III/IV
// protocol. Synthetic UCR-style datasets (severity 0.5), each fit and
// detected with ucr_runner's model on one lane, scored with src/eval.

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/detector.h"
#include "data/sanitize.h"
#include "data/ucr_generator.h"
#include "fleet.h"

namespace perfbench {

namespace core = triad::core;

namespace {

// Each set-up is about half a second of one-lane work; the median of nine
// keeps a slow moment of the host out of setup_s.
constexpr int kSetups = 9;
// Datasets per requested second: 24 at the benchmark's 30 s runs.
constexpr double kDatasetsPerSecond = 0.8;

// Dataset i of a synthetic UCR-style archive: MakeUcrArchive's family and
// anomaly-type rotation and severity 0.5, but with the period and the
// train/test lengths fixed per index and spread evenly over the generator's
// default ranges (period 40-80, 14-24 train and 10-16 test periods). The
// seed draws the signals and anomalies; the amount of work per run does
// not depend on it.
triad::data::UcrDataset MakeDataset(int64_t i, int64_t count,
                                    triad::Rng* rng) {
  static const char* const kFamilies[] = {"sine", "ecg", "saw", "square"};
  triad::data::UcrGeneratorOptions options;
  options.severity = 0.5;
  // Golden-ratio steps keep neighbouring indices far apart in period.
  const double u = std::fmod(0.5 + 0.6180339887 * static_cast<double>(i), 1.0);
  options.min_period = options.max_period =
      40 + static_cast<int64_t>(std::llround(40.0 * u));
  options.min_train_periods = options.max_train_periods =
      14 + (i * 7 + count) % 11;
  options.min_test_periods = options.max_test_periods = 10 + (i * 3) % 7;
  const auto type = static_cast<triad::data::AnomalyType>((i / 4) % 7);
  return triad::data::MakeUcrDataset(options, i, type, kFamilies[i % 4], rng);
}

}  // namespace

void RunArchiveBatch(const Args& args, Report* report) {
  const int64_t count = std::max<int64_t>(
      4, static_cast<int64_t>(args.seconds * kDatasetsPerSecond + 0.5));
  SpeedIndex speed(args.lanes);

  core::TriadConfig config;
  config.depth = 3;
  config.hidden_dim = 16;
  config.epochs = 8;

  // ---- set-up, several times: the inputs, plus one warm-up fit + detect
  // on a small extra dataset so lazy initialisation (FFT plans, the pool)
  // is paid before timing ----
  std::vector<double> setup_s;
  std::vector<triad::data::UcrDataset> archive;
  for (int rep = 0; rep < kSetups; ++rep) {
    speed.Sample();
    ScopedSpan span("phase.setup");
    const double start = Now();
    triad::Rng master(MixSeed(args.seed, 3));
    archive.clear();
    for (int64_t i = 0; i < count; ++i) {
      triad::Rng rng = master.Fork();
      archive.push_back(MakeDataset(i, count, &rng));
    }
    triad::data::UcrGeneratorOptions small;
    small.count = 1;
    small.seed = MixSeed(args.seed, 4);
    small.severity = 0.5;
    small.max_period = small.min_period;
    small.max_train_periods = small.min_train_periods;
    small.max_test_periods = small.min_test_periods;
    const triad::data::UcrDataset warm = triad::data::MakeUcrArchive(small)[0];
    core::TriadDetector detector(config);
    if (!detector.Fit(warm.train).ok() || !detector.Detect(warm.test).ok()) {
      report->Mismatch("warm-up dataset failed");
      return;
    }
    setup_s.push_back(Now() - start);
  }

  // ---- measured phase: fit + detect every dataset ----
  std::vector<double> fit_ms, verdict_ms;
  double busy = 0.0, cpu_s = 0.0, points = 0.0, windows = 0.0;
  int64_t failed = 0;
  // Regions Detect searched, with their longest discord length; the traced
  // run re-searches them after the measured phase.
  std::vector<std::pair<std::vector<double>, int64_t>> regions;
  LayerSamples layers;
  Accuracy accuracy;
  const Counters before = ReadCounters();
  const double budget_end = Now() + kBudgetFactor * args.seconds;
  int64_t ran = 0;  // datasets
  {
    ScopedSpan phase("phase.measure");
    for (; ran < count && Now() < budget_end; ++ran) {
      const triad::data::UcrDataset& ds = archive[ran];
      {
        ScopedSpan span("bench.speed_sample");
        speed.Sample(8);
      }
      const double cpu0 = ProcessCpuSeconds();
      const double start = Now();
      core::TriadDetector detector(config);
      triad::Status fitted;
      {
        ScopedSpan span("detector.fit");
        fitted = detector.Fit(ds.train);
      }
      const double fit_end = Now();
      triad::Result<core::DetectionResult> result =
          triad::Status::Internal("not run");
      if (fitted.ok()) {
        ScopedSpan span("detector.detect");
        result = detector.Detect(ds.test);
        if (result.ok()) layers.AddStages(*result, fit_end);
      }
      const double done = Now();
      busy += done - start;
      cpu_s += ProcessCpuSeconds() - cpu0;
      if (!fitted.ok() || !result.ok()) {
        ++failed;
        report->Mismatch(ds.name + ": " +
                         (fitted.ok() ? result.status() : fitted).ToString());
        continue;
      }
      points += static_cast<double>(ds.train.size() + ds.test.size());
      windows += static_cast<double>(detector.train_stats().train_windows *
                                     config.epochs);
      fit_ms.push_back((fit_end - start) * 1e3);
      layers.detect_ms.push_back((done - fit_end) * 1e3);
      verdict_ms.push_back((done - start) * 1e3);
      accuracy.Add(result->predictions, ds.TestLabels());
      const int64_t max_len = MerlinMaxLength(detector, *result);
      if (max_len >= config.merlin_min_length) {
        regions.emplace_back(
            Slice(ds.test, result->search_begin, result->search_end),
            max_len);
      }
    }
  }
  const Counters measured = Delta(ReadCounters(), before);

  // ---- traced: the discord layer alone, over each region Detect searched
  if (args.trace) {
    ScopedSpan phase("phase.replay");
    for (const auto& [region, max_len] : regions) {
      layers.TimeMerlin(config, region, max_len);
    }
    for (int64_t i = 0; i < ran; ++i) {
      const triad::data::UcrDataset& ds = archive[i];
      const double start = Now();
      ScopedSpan span("data.sanitize");
      (void)triad::data::SanitizeSeries(ds.test, config.sanitize);
      layers.sanitize_us.push_back((Now() - start) * 1e6);
    }
  }

  report->attempted = ran;
  report->failed = failed;
  report->counters["measured"] = measured;
  report->AddEndToEnd(setup_s, cpu_s, points, busy, verdict_ms);
  AddCounterLayers(measured, measured, report);
  accuracy.Report(report);
  double fit_total = 0.0;
  for (double ms : fit_ms) fit_total += ms;
  report->Layer("detector.fit_ms_p50", Median(fit_ms), "ms");
  report->Layer("detector.fit_share", fit_total / (busy * 1e3), "ratio");
  report->Layer("trainer.windows_per_s", windows / (fit_total * 1e-3), "1/s");
  AddDetectLayers(layers, report);
  report->Layer("sanitize.us_p50", Median(layers.sanitize_us), "us");
  report->notes["datasets"] = std::to_string(ran);
  if (ran < count) {
    report->notes["budget_cut"] = std::to_string(ran) + " of " +
                                  std::to_string(count) + " datasets";
  }
  report->CorrectForSpeed(speed);
}

}  // namespace perfbench
