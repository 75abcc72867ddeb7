// Pieces the workloads share: tenant feeds, fleet set-up, timed ingest and
// drain, the standalone replay that gates correctness, the traced
// per-layer replay, stage splits of a DetectionResult, and accuracy of
// timelines against injected labels.

#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/streaming.h"
#include "harness.h"
#include "serve/fleet_server.h"
#include "serve/model_registry.h"

namespace perfbench {

std::vector<double> Slice(const std::vector<double>& v, int64_t begin,
                          int64_t end);

/// One tenant's generated stream and its 0/1 anomaly labels.
struct Feed {
  std::vector<double> points;
  std::vector<int> labels;
};

/// A period-`period` sensor with sparse injected anomalies. Dirty feeds
/// also carry a 4-sample NaN run every 250 points, which the sanitizer
/// repairs.
Feed MakeFeed(uint64_t seed, int64_t tenant, int64_t period, int64_t length,
              bool dirty);

/// The shape of a fleet workload.
struct FleetShape {
  int64_t period = 0;
  int64_t tenants = 0;
  int64_t stream_length = 0;    ///< points generated per tenant
  int64_t first_dirty = 0;      ///< tenants from this index on are dirty
  triad::core::StreamingOptions stream;
  triad::serve::FleetOptions fleet;
  /// Points tenant t ingests during set-up (its first full pass or more).
  int64_t (*first_chunk)(int64_t tenant) = nullptr;
};

/// A served fleet after set-up.
struct Fleet {
  std::vector<Feed> feeds;
  std::unique_ptr<triad::serve::ModelRegistry> registry;
  std::shared_ptr<const triad::core::TriadDetector> model;
  std::unique_ptr<triad::serve::FleetServer> server;
  std::vector<int64_t> ids;
  Counters training;           ///< counter deltas of the last set-up's Fit
  std::vector<double> setup_s;
  std::vector<double> fit_s;
};

/// Key the shared model is registered (and recovered) under.
extern const char* const kModelKey;

/// Sets the fleet up `reps` times — inputs, the shared model's Fit (depth 2,
/// hidden 8, 3 epochs, every 4th discord length, on a clean series from the
/// seed), registration and each tenant's first chunk drained — and keeps
/// the last. False (with a mismatch recorded) when a step fails.
bool SetUpFleet(uint64_t seed, const FleetShape& shape, int reps,
                SpeedIndex* speed, Fleet* out, Report* report);

/// Admission outcomes and per-call latencies of timed Ingest calls.
struct IngestTally {
  int64_t submitted = 0;
  int64_t rejected = 0;
  int64_t errored = 0;
  std::vector<double> ingest_us;
};
void TimedIngest(triad::serve::FleetServer* fleet, int64_t id,
                 const std::vector<double>& chunk, IngestTally* tally);
/// Drains under a span; returns the drain's wall milliseconds.
double TimedDrain(triad::serve::FleetServer* fleet, IngestTally* tally);

/// Alarm timeline, pass count and failed-pass count of a standalone
/// StreamingTriad, taken after each of `segments` is appended in order.
struct ReplayResult {
  std::vector<int> alarms;
  int64_t passes = 0;
  int64_t failed_passes = 0;
  bool ok = true;
};
std::vector<ReplayResult> StandaloneReplay(
    const triad::core::TriadDetector& detector,
    const triad::core::StreamingOptions& options,
    const std::vector<std::vector<double>>& segments);

/// Mismatch text when a served tenant differs from its replay, else empty.
std::string CompareTenant(const char* what, int64_t id,
                          const std::vector<int>& alarms, int64_t passes,
                          int64_t failed_passes, const ReplayResult& replay);

/// Samples the traced replay collects, per layer.
struct LayerSamples {
  std::vector<double> append_ms;   ///< Appends that ran a pass
  std::vector<double> cold_append_ms;
  std::vector<double> detect_ms;
  std::vector<double> merlin_ms;
  std::vector<double> sanitize_us;
  double encode_s = 0.0;
  double tri_window_s = 0.0;
  double selection_s = 0.0;
  double discord_s = 0.0;
  int64_t merlin_restarts = 0;
  int64_t merlin_discords = 0;
  int64_t misaligned_passes = 0;  ///< passes whose buffer was not exported

  /// Adds a Detect result's stage seconds, and lays them end to end from
  /// `start` as child spans of the open span.
  void AddStages(const triad::core::DetectionResult& result, double start);
  /// Runs discord::Merlin over `region` under a span and records it.
  void TimeMerlin(const triad::core::TriadConfig& config,
                  const std::vector<double>& region, int64_t max_length);
};

/// The longest discord length Detect searched in `result`'s region.
int64_t MerlinMaxLength(const triad::core::TriadDetector& detector,
                        const triad::core::DetectionResult& result);

/// Replays one tenant's accepted stream through StreamingTriad::Append in
/// `hop`-sized chunks, and on every buffer a pass scores (read back with
/// ExportState) also calls SanitizeSeries, TriadDetector::Detect (with a
/// memo of its own) and discord::Merlin over the region Detect searched —
/// each under a span.
void TracedReplay(const triad::core::TriadDetector& detector,
                  const triad::core::StreamingOptions& options,
                  const std::vector<double>& stream, LayerSamples* out);

/// The traced replay's per-layer metrics (streaming, sanitize, detector,
/// discord).
void AddReplayLayers(const LayerSamples& samples, Report* report);
/// The detector and discord metrics alone.
void AddDetectLayers(const LayerSamples& samples, Report* report);

/// Share of injected anomaly events the timeline hits within ±100 points
/// (eval::EventDetected per event) and PA%K F1-AUC of the timeline.
struct Accuracy {
  int64_t events = 0;
  int64_t hit = 0;
  double pak_f1_auc_sum = 0.0;
  int64_t timelines = 0;
  void Add(const std::vector<int>& alarms, const std::vector<int>& labels);
  /// eval.event_accuracy and eval.pak_f1_auc (mean over timelines).
  void Report(perfbench::Report* report) const;
};

/// The counter-based per-layer metrics every workload reports, from the
/// measured phase's counter deltas and the training counters.
void AddCounterLayers(const Counters& measured, const Counters& training,
                      Report* report);

/// The serve-layer latency metrics of a fleet's measured phase.
void AddServeLayers(const IngestTally& tally,
                    const std::vector<double>& drain_ms, double busy_s,
                    double phase_s, int64_t backlog_max, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
