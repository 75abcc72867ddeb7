#ifndef TRIAD_BENCH_BENCH_UTIL_H_
#define TRIAD_BENCH_BENCH_UTIL_H_

#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/detector.h"
#include "data/dataset.h"
#include "data/ucr_generator.h"
#include "eval/metrics.h"

namespace triad::bench {

/// \brief Workload sizes for the experiment harnesses.
///
/// Defaults are scaled for a single laptop-class core; every field can be
/// raised toward the paper's sizes through environment variables
/// (TRIAD_BENCH_DATASETS, TRIAD_BENCH_SEEDS, TRIAD_BENCH_EPOCHS,
/// TRIAD_BENCH_DEPTH, TRIAD_BENCH_HIDDEN, TRIAD_BENCH_SEVERITY).
struct BenchConfig {
  int64_t datasets = 10;   ///< archive size (paper: 250)
  int64_t seeds = 2;       ///< TriAD seeds averaged (paper: 5)
  int64_t epochs = 6;      ///< training epochs (paper: 20)
  int64_t depth = 3;       ///< encoder blocks (paper: 6)
  int64_t hidden = 16;     ///< h_d (paper: 32)
  double severity = 0.5;   ///< anomaly subtlety of the generated archive
  uint64_t archive_seed = 7;
};

/// Reads the bench config from the environment.
BenchConfig LoadBenchConfig();

/// The synthetic UCR-style archive used across benches.
std::vector<data::UcrDataset> MakeBenchArchive(const BenchConfig& config);

/// TriAD config matching a bench config (everything else at paper defaults).
core::TriadConfig MakeTriadConfig(const BenchConfig& config, uint64_t seed);

/// \brief The full metric row of Table III for one prediction vector.
struct MetricsRow {
  double f1_pw = 0.0;
  double f1_pa = 0.0;
  double pak_precision_auc = 0.0;
  double pak_recall_auc = 0.0;
  double pak_f1_auc = 0.0;
  double aff_precision = 0.0;
  double aff_recall = 0.0;
  double aff_f1 = 0.0;
};

/// Computes every Table-III metric for binary predictions.
MetricsRow ComputeMetricsRow(const std::vector<int>& pred,
                             const std::vector<int>& labels);

/// Element-wise mean of rows.
MetricsRow MeanRow(const std::vector<MetricsRow>& rows);

/// Prints the standard header naming the bench, its workload, and the knobs.
void PrintBenchHeader(const std::string& title, const BenchConfig& config);

/// Prints the paper's reference numbers for side-by-side comparison.
void PrintPaperReference(const std::string& text);

/// True if window [start, start+length) overlaps the dataset's anomaly.
bool WindowHitsAnomaly(int64_t start, int64_t length,
                       const data::UcrDataset& ds);

/// Runs TriAD end to end on one dataset; returns the detection result.
/// Aborts on pipeline errors (benches treat them as fatal).
core::DetectionResult RunTriad(const core::TriadConfig& config,
                               const data::UcrDataset& ds);

/// \brief Writes the machine-readable bench record `BENCH_<name>.json`
/// (schema `triad-observability-v3`, documented in bench/README.md): wall
/// time, the active SIMD tier, the default pool's thread count, every
/// registry instrument (each span name is a histogram), and the caller's
/// `extra` scalars. The output directory comes from TRIAD_BENCH_JSON_DIR
/// (default "."). Returns the path written; aborts if the file cannot be
/// created.
std::string WriteBenchJson(
    const std::string& name, double wall_seconds,
    const std::vector<std::pair<std::string, double>>& extra = {});

}  // namespace triad::bench

#endif  // TRIAD_BENCH_BENCH_UTIL_H_
