// triad_perfbench: runs one benchmark workload and prints its record as
// one JSON line on stdout. perfbench/run.py builds this binary, runs it
// and turns the record into the benchmark's result line.
//
//   triad_perfbench --workload fleet_paced --seed 1 --seconds 30 --trace 0
//       --lanes 2 --state-dir DIR [--trace-out FILE]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--lanes") {
      args.lanes = std::atoi(value.c_str());
    } else if (flag == "--state-dir") {
      args.state_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const bool known = args.workload == "fleet_paced" ||
                     args.workload == "fleet_saturated" ||
                     args.workload == "archive_batch";
  if (!known || args.lanes < 1 || args.seconds <= 0.0 ||
      args.state_dir.empty()) {
    std::fprintf(stderr,
                 "usage: %s --workload fleet_paced|fleet_saturated|"
                 "archive_batch --seed N --seconds S --trace 0|1 "
                 "--lanes N --state-dir DIR [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }

  // Lanes are pinned per workload; the driver thread is one of them.
  triad::ThreadPool pool(args.lanes);
  triad::ScopedDefaultPool scoped_pool(&pool);
  triad::metrics::ScopedEnable metrics_on(true);
  SpanLog::Get().Enable(args.trace, static_cast<int>(args.seed % 1000000));

  Report report;
  report.workload = args.workload;
  report.seed = args.seed;
  report.lanes = args.lanes;
  report.trace = args.trace;
  if (args.workload == "fleet_paced") {
    RunFleetPaced(args, &report);
  } else if (args.workload == "fleet_saturated") {
    RunFleetSaturated(args, &report);
  } else {
    RunArchiveBatch(args, &report);
  }

  report.Layer("bench.host_speed_index", report.speed_index, "ratio");
  if (args.trace) {
    // Self time per span name; spans whose children cover less than 95% of
    // them report the gap as unattributed (set-up spans hold untraced
    // input generation by design and are left out of the total).
    double unattributed = 0.0, traced = 0.0;
    for (const auto& [name, stat] : SpanLog::Get().Summarize()) {
      report.Layer("span." + name + ".self_s", stat.self, "s");
      if (name == "phase.measure" || name == "phase.replay") {
        traced += stat.total;
      }
      if (stat.unattributed > 0.0) {
        report.Layer("span." + name + ".unattributed_s", stat.unattributed,
                     "s");
        if (name != "phase.setup") unattributed += stat.unattributed;
      }
    }
    report.Layer("bench.unattributed_frac",
                 traced > 0.0 ? unattributed / traced : 0.0, "ratio");
    if (!args.trace_path.empty() && !SpanLog::Get().Write(args.trace_path)) {
      report.Mismatch("cannot write span log " + args.trace_path);
    }
  }
  report.notes["nproc"] = std::to_string(std::thread::hardware_concurrency());
  report.notes["simd"] = triad::simd::LevelName(triad::simd::ActiveLevel());
#ifdef NDEBUG
  report.notes["build"] = "Release (-O3 -g -DNDEBUG)";
#else
  report.notes["build"] = "debug";
#endif
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
