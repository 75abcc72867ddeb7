// Command-line runner for real UCR Anomaly Archive files.
//
//   $ ./build/examples/ucr_runner path/to/135_UCR_Anomaly_X_1200_4187_4199.txt
//   $ ./build/examples/ucr_runner --demo        # run on a generated dataset
//
// Optional flags (after the path): --epochs N --depth N --hidden N
//   --save ckpt.bin (write the fitted detector)
//   --metrics-json out.json (write the observability report: registry
//   instruments, each per-stage span a histogram, SIMD tier, thread
//   count — the same triad-observability-v3 schema as the BENCH_*.json
//   records)
//
// Prints the detection spans, all rigorous metrics, and the per-stage
// interpretability artifacts.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common/stats.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/detector.h"
#include "data/ucr_generator.h"
#include "data/ucr_io.h"
#include "eval/metrics.h"

namespace {

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s <ucr_file.txt | --demo> [--epochs N] [--depth N] "
      "[--hidden N] [--save ckpt.bin] [--metrics-json out.json]\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace triad;
  if (argc < 2) {
    PrintUsage(argv[0]);
    return 2;
  }

  core::TriadConfig config;
  config.depth = 3;
  config.hidden_dim = 16;
  config.epochs = 8;
  std::string save_path;
  std::string metrics_json_path;
  Timer wall;

  data::UcrDataset dataset;
  if (std::strcmp(argv[1], "--demo") == 0) {
    data::UcrGeneratorOptions gen;
    gen.count = 1;
    gen.seed = 2024;
    dataset = data::MakeUcrArchive(gen)[0];
    std::printf("demo dataset %s\n", dataset.name.c_str());
  } else {
    auto loaded = data::LoadUcrFile(argv[1]);
    if (!loaded.ok()) {
      std::printf("cannot load %s: %s\n", argv[1],
                  loaded.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(loaded).value();
  }

  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--epochs") == 0) {
      config.epochs = std::atoll(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--depth") == 0) {
      config.depth = std::atoll(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--hidden") == 0) {
      config.hidden_dim = std::atoll(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--save") == 0) {
      save_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      metrics_json_path = argv[i + 1];
    } else {
      PrintUsage(argv[0]);
      return 2;
    }
  }

  std::printf("%s: %zu train / %zu test points, anomaly [%lld, %lld)\n",
              dataset.name.c_str(), dataset.train.size(), dataset.test.size(),
              static_cast<long long>(dataset.anomaly_begin),
              static_cast<long long>(dataset.anomaly_end));

  core::TriadDetector detector(config);
  if (Status s = detector.Fit(dataset.train); !s.ok()) {
    std::printf("fit failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("period %lld, window %lld, stride %lld, %lld parameters\n",
              static_cast<long long>(detector.period()),
              static_cast<long long>(detector.window_length()),
              static_cast<long long>(detector.stride()),
              static_cast<long long>(detector.model().ParameterCount()));

  auto result = detector.Detect(dataset.test);
  if (!result.ok()) {
    std::printf("detect failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  static const char* kDomains[] = {"temporal", "frequency", "residual"};
  for (size_t d = 0; d < result->candidate_windows.size(); ++d) {
    const int64_t cand = result->candidate_windows[d];
    std::printf("%-9s nominated window %lld (start %lld)\n", kDomains[d],
                static_cast<long long>(cand),
                static_cast<long long>(
                    result->window_starts[static_cast<size_t>(cand)]));
  }
  std::printf("selected window start %lld; MERLIN region [%lld, %lld); %zu "
              "discords; exception=%s\n",
              static_cast<long long>(
                  result->window_starts[static_cast<size_t>(
                      result->selected_window)]),
              static_cast<long long>(result->search_begin),
              static_cast<long long>(result->search_end),
              result->discords.size(),
              result->exception_applied ? "yes" : "no");

  for (const auto& e : eval::ExtractEvents(result->predictions)) {
    std::printf("predicted anomaly: [%lld, %lld)\n",
                static_cast<long long>(e.begin),
                static_cast<long long>(e.end));
  }

  const std::vector<int> labels = dataset.TestLabels();
  const eval::Confusion pw = eval::ComputeConfusion(result->predictions,
                                                    labels);
  const eval::PaKCurve pak = eval::ComputePaKCurve(result->predictions,
                                                   labels);
  const eval::AffiliationScore aff =
      eval::ComputeAffiliation(result->predictions, labels);
  std::printf(
      "F1(PW) %.3f | F1(PA) %.3f | PA%%K F1-AUC %.3f | affiliation P/R/F1 "
      "%.3f/%.3f/%.3f | event hit(±100): %s | inference %.2fs\n",
      pw.F1(),
      eval::ComputeConfusion(eval::PointAdjust(result->predictions, labels),
                             labels)
          .F1(),
      pak.f1_auc, aff.precision, aff.recall, aff.F1(),
      eval::EventDetected(result->predictions, labels, 100) ? "yes" : "no",
      result->TotalSeconds());

  if (!save_path.empty()) {
    if (Status s = detector.Save(save_path); !s.ok()) {
      std::printf("checkpoint save failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("checkpoint written to %s\n", save_path.c_str());
  }

  if (!metrics_json_path.empty()) {
    std::ofstream out(metrics_json_path);
    if (!out) {
      std::printf("cannot write %s\n", metrics_json_path.c_str());
      return 1;
    }
    trace::WriteObservabilityJson(out, "ucr_runner:" + dataset.name,
                                  wall.ElapsedSeconds(),
                                  {{"f1_pw", pw.F1()}, {"f1_pak_auc", pak.f1_auc}});
    std::printf("observability report written to %s\n",
                metrics_json_path.c_str());
  }
  return 0;
}
