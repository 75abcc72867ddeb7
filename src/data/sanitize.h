#ifndef TRIAD_DATA_SANITIZE_H_
#define TRIAD_DATA_SANITIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace triad::data {

/// \brief Defect classes the corruption scanner recognizes in raw series.
///
/// These mirror the failure modes of real sensor traffic that
/// decomposition-based detectors are known to choke on (see
/// ARCHITECTURE.md §5): transmission gaps arrive as NaN/Inf runs, sensor
/// dropouts as stuck (constant) runs, and unit/scale glitches as isolated
/// samples orders of magnitude away from the signal body.
enum class DefectType {
  kNonFinite,  ///< run of NaN / +-Inf samples
  kStuckRun,   ///< run of >= stuck_run_length identical samples
  kGlitch,     ///< samples beyond glitch_sigmas robust deviations
  kTooShort,   ///< whole series shorter than min_length
};

/// \brief One contiguous span of defective samples, half-open [begin, end).
struct DefectSpan {
  DefectType type = DefectType::kNonFinite;
  int64_t begin = 0;
  int64_t end = 0;
  /// True when the repair pass fixed the span (interpolated or clamped);
  /// stuck runs are never repaired (the data is gone), only recorded.
  bool repaired = false;

  int64_t length() const { return end - begin; }
};

/// \brief Thresholds for the scanner and the repair policies. The defaults
/// are deliberately permissive: legitimate structure (ECG spikes, planted
/// anomalies) sits orders of magnitude inside every limit, so clean series
/// pass through bit-identical.
struct SanitizeOptions {
  /// Series shorter than this are rejected outright.
  int64_t min_length = 8;
  /// Non-finite runs up to this length are linearly interpolated from the
  /// nearest finite neighbours (edge runs are held at the nearest finite
  /// value). Longer runs are unrepairable and reject the series.
  int64_t max_interpolate_gap = 16;
  /// Runs of >= this many *identical* samples count as a sensor dropout /
  /// flat-line. They are recorded (and excluded from discord ranking by the
  /// zero-variance kernel guards) but never repaired.
  int64_t stuck_run_length = 64;
  /// Reject when the stuck fraction of the series exceeds this.
  double max_stuck_fraction = 0.5;
  /// Samples farther than glitch_sigmas robust deviations (1.4826 * MAD)
  /// from the median are scale glitches, winsorized back into the robust
  /// bulk (median +- 3 robust deviations). The MAD has a 50% breakdown
  /// point, so the threshold stays sane even when a third of the series is
  /// garbage.
  double glitch_sigmas = 100.0;
  /// Reject when the damaged fraction (non-finite + glitch samples) of the
  /// series exceeds this.
  double max_damage_fraction = 0.2;
  /// When false, any defect (other than recordable stuck runs) rejects the
  /// series instead of being repaired — the strict pre-hardening contract.
  bool repair = true;
};

/// \brief Structured outcome of a scan/sanitize pass over one series.
struct SanitizeReport {
  int64_t length = 0;           ///< samples scanned
  int64_t non_finite_samples = 0;
  int64_t stuck_samples = 0;    ///< samples inside recorded stuck runs
  int64_t glitch_samples = 0;
  int64_t repaired_samples = 0; ///< interpolated + clamped
  std::vector<DefectSpan> defects;

  /// True when the scan found nothing: the series passed through untouched.
  bool clean() const { return defects.empty(); }
  /// Damaged fraction used against SanitizeOptions::max_damage_fraction.
  double damage_fraction() const {
    return length == 0
               ? 0.0
               : static_cast<double>(non_finite_samples + glitch_samples) /
                     static_cast<double>(length);
  }
  double stuck_fraction() const {
    return length == 0 ? 0.0
                       : static_cast<double>(stuck_samples) /
                             static_cast<double>(length);
  }
  /// One-line summary for logs / error messages.
  std::string Summary() const;
};

/// \brief A repaired series together with what was done to it.
struct Sanitized {
  std::vector<double> series;
  SanitizeReport report;
};

/// Scans without modifying: every defect the repair pass would touch (or
/// reject on) is reported, with `repaired` left false.
SanitizeReport ScanSeries(const std::vector<double>& series,
                          const SanitizeOptions& options = SanitizeOptions());

/// \brief Scan + repair + threshold check — the ingest gate of the pipeline.
///
/// Ladder (ARCHITECTURE.md §5): short non-finite gaps are interpolated and
/// scale glitches clamped (rung 1, "repair"); stuck runs are recorded and
/// left for the zero-variance kernel guards (rung 2, "degrade"); series
/// whose damage exceeds the configured thresholds — or that are too short,
/// or contain an uninterpolatable gap — are rejected with
/// StatusCode::kInvalidArgument (rung 3, "reject"). A clean series returns
/// a bit-identical copy with an empty report.
Result<Sanitized> SanitizeSeries(
    const std::vector<double>& series,
    const SanitizeOptions& options = SanitizeOptions());

}  // namespace triad::data

#endif  // TRIAD_DATA_SANITIZE_H_
