#ifndef TRIAD_COMMON_TRACE_H_
#define TRIAD_COMMON_TRACE_H_

#include <chrono>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace triad::trace {

/// \brief RAII trace span: times `[construction, Stop()-or-destruction)`
/// into the registry histogram named after the span (see ARCHITECTURE.md
/// §6).
///
/// A span always *measures* (two steady-clock reads — that is what feeds the
/// `DetectionResult` stage-seconds compatibility fields), but it only
/// *records* when metrics::Enabled() is true, so `TRIAD_METRICS=off`
/// records nothing. A recorded span is one histogram observation: the
/// registry counts every span from every thread exactly, with its sum and
/// log-spaced buckets, and nothing is sampled or evicted.
///
/// `name` must outlive the span (string literals by convention).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Ends the span now, records it, and returns its duration in seconds.
  /// Subsequent Stop() calls and the destructor are no-ops. Always returns
  /// the measured duration, recorded or not — callers use it to fill
  /// compatibility timing fields.
  double Stop();

 private:
  using Clock = std::chrono::steady_clock;
  const char* name_;
  Clock::time_point start_;
  bool active_;
};

/// \brief Writes the full observability report as one JSON document:
///
/// ```json
/// {
///   "schema": "triad-observability-v3",
///   "name": "<name>",
///   "wall_seconds": <w>,
///   "simd_tier": "scalar" | "avx2",
///   "threads": <default pool lanes>,
///   "metrics_enabled": true | false,
///   "counters": {...}, "histograms": [...spans too...],
///   "extra": {"<key>": <value>, ...}
/// }
/// ```
///
/// This is the schema behind the bench harness's `BENCH_<name>.json`
/// files and `ucr_runner --metrics-json` (documented in bench/README.md).
void WriteObservabilityJson(
    std::ostream& os, const std::string& name, double wall_seconds,
    const std::vector<std::pair<std::string, double>>& extra = {});

}  // namespace triad::trace

#endif  // TRIAD_COMMON_TRACE_H_
