#include "data/sanitize.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/metrics.h"

namespace triad::data {
namespace {

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid),
                   v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid) - 1,
                   v.begin() + static_cast<ptrdiff_t>(mid));
  return 0.5 * (v[mid - 1] + hi);
}

// Shared scan/repair pass. `out` receives the repaired series when repairs
// are applied; with apply_repairs = false the input is analyzed untouched
// (glitch statistics still use interpolated values so a gap cannot skew the
// median). Returns the accept/reject decision; ScanSeries ignores it.
Status Analyze(const std::vector<double>& series,
               const SanitizeOptions& options, bool apply_repairs,
               SanitizeReport* report, std::vector<double>* out) {
  const int64_t n = static_cast<int64_t>(series.size());
  report->length = n;
  if (n < options.min_length) {
    report->defects.push_back({DefectType::kTooShort, 0, n, false});
    std::ostringstream os;
    os << "series of " << n << " samples is shorter than the minimum "
       << options.min_length;
    return Status::InvalidArgument(os.str());
  }

  std::vector<double> work = series;

  // --- non-finite runs: interpolate short gaps, reject long ones ---
  int64_t longest_gap = 0;
  for (int64_t i = 0; i < n;) {
    if (std::isfinite(work[static_cast<size_t>(i)])) {
      ++i;
      continue;
    }
    int64_t e = i;
    while (e < n && !std::isfinite(work[static_cast<size_t>(e)])) ++e;
    const int64_t len = e - i;
    report->non_finite_samples += len;
    longest_gap = std::max(longest_gap, len);
    const bool fixable = len <= options.max_interpolate_gap;
    report->defects.push_back(
        {DefectType::kNonFinite, i, e, fixable && apply_repairs});
    // Interpolate into `work` even when only scanning, so the glitch
    // statistics below never see NaN/Inf.
    const int64_t left = i - 1;
    const int64_t right = e;
    if (left < 0 && right >= n) {
      return Status::InvalidArgument("series has no finite samples");
    }
    for (int64_t j = i; j < e; ++j) {
      double v;
      if (left < 0) {
        v = work[static_cast<size_t>(right)];
      } else if (right >= n) {
        v = work[static_cast<size_t>(left)];
      } else {
        const double t = static_cast<double>(j - left) /
                         static_cast<double>(right - left);
        v = work[static_cast<size_t>(left)] +
            t * (work[static_cast<size_t>(right)] -
                 work[static_cast<size_t>(left)]);
      }
      work[static_cast<size_t>(j)] = v;
    }
    if (fixable && apply_repairs) report->repaired_samples += len;
    i = e;
  }

  // --- scale glitches: robust median/MAD fence, winsorize into range ---
  const double med = MedianOf(work);
  std::vector<double> dev(work.size());
  for (size_t i = 0; i < work.size(); ++i) dev[i] = std::abs(work[i] - med);
  const double mad = MedianOf(std::move(dev));
  double scale = 1.4826 * mad;
  if (scale == 0.0) {
    // At least half the samples are identical, so the MAD is blind. Fall
    // back to the mean absolute deviation: a spike on a constant series is
    // still fenced, while the legitimate minority of a stuck-dominated
    // series is not mass-flagged (an exactly constant series yields
    // fence 0, and |v - med| > 0 never fires).
    double total = 0.0;
    for (double v : work) total += std::abs(v - med);
    scale = total / static_cast<double>(n);
  }
  const double fence = options.glitch_sigmas * scale;
  // Detection and repair use different bounds on purpose: the fence is wide
  // so legitimate sharp features (ECG QRS complexes sit at ~30-50 robust
  // sigmas) are never touched, but a sample that does cross it is
  // winsorized all the way back into the robust bulk — clamping to the
  // fence itself would leave a huge residual spike.
  const double repair_bound = 3.0 * scale;
  int64_t glitch_begin = -1;
  for (int64_t i = 0; i <= n; ++i) {
    const bool hit =
        i < n && std::abs(work[static_cast<size_t>(i)] - med) > fence;
    if (hit) {
      ++report->glitch_samples;
      if (glitch_begin < 0) glitch_begin = i;
      if (apply_repairs) {
        work[static_cast<size_t>(i)] = work[static_cast<size_t>(i)] > med
                                           ? med + repair_bound
                                           : med - repair_bound;
        ++report->repaired_samples;
      }
    } else if (glitch_begin >= 0) {
      report->defects.push_back(
          {DefectType::kGlitch, glitch_begin, i, apply_repairs});
      glitch_begin = -1;
    }
  }

  // --- stuck runs: recorded, never repaired ---
  for (int64_t i = 0; i < n;) {
    int64_t e = i + 1;
    while (e < n &&
           work[static_cast<size_t>(e)] == work[static_cast<size_t>(i)]) {
      ++e;
    }
    if (e - i >= options.stuck_run_length) {
      report->stuck_samples += e - i;
      report->defects.push_back({DefectType::kStuckRun, i, e, false});
    }
    i = e;
  }
  std::sort(report->defects.begin(), report->defects.end(),
            [](const DefectSpan& a, const DefectSpan& b) {
              return a.begin != b.begin ? a.begin < b.begin
                                        : a.type < b.type;
            });

  // --- accept / reject ---
  if (longest_gap > options.max_interpolate_gap) {
    std::ostringstream os;
    os << "non-finite gap of " << longest_gap
       << " samples exceeds the repairable limit "
       << options.max_interpolate_gap;
    return Status::InvalidArgument(os.str());
  }
  if (report->damage_fraction() > options.max_damage_fraction) {
    std::ostringstream os;
    os << "damaged fraction " << report->damage_fraction()
       << " exceeds the limit " << options.max_damage_fraction << " ("
       << report->Summary() << ")";
    return Status::InvalidArgument(os.str());
  }
  if (report->stuck_fraction() > options.max_stuck_fraction) {
    std::ostringstream os;
    os << "stuck (constant) fraction " << report->stuck_fraction()
       << " exceeds the limit " << options.max_stuck_fraction;
    return Status::InvalidArgument(os.str());
  }
  if (!options.repair && !report->clean()) {
    bool recordable_only = true;
    for (const DefectSpan& d : report->defects) {
      recordable_only = recordable_only && d.type == DefectType::kStuckRun;
    }
    if (!recordable_only) {
      return Status::InvalidArgument(
          "series contains non-finite or glitch defects and repair is "
          "disabled (" +
          report->Summary() + ")");
    }
  }

  if (out != nullptr) *out = std::move(work);
  return Status::OK();
}

}  // namespace

std::string SanitizeReport::Summary() const {
  std::ostringstream os;
  os << length << " samples, " << defects.size() << " defect spans";
  if (non_finite_samples > 0) os << ", " << non_finite_samples << " non-finite";
  if (glitch_samples > 0) os << ", " << glitch_samples << " glitches";
  if (stuck_samples > 0) os << ", " << stuck_samples << " stuck";
  if (repaired_samples > 0) os << ", " << repaired_samples << " repaired";
  return os.str();
}

SanitizeReport ScanSeries(const std::vector<double>& series,
                          const SanitizeOptions& options) {
  SanitizeReport report;
  (void)Analyze(series, options, /*apply_repairs=*/false, &report, nullptr);
  return report;
}

Result<Sanitized> SanitizeSeries(const std::vector<double>& series,
                                 const SanitizeOptions& options) {
  // Ingest-gate health counters (ARCHITECTURE.md §6): how many series made
  // it through, how many were turned away, and how much repair the gate is
  // doing — a rising repair rate is the early warning for upstream decay.
  static metrics::Counter* accepted =
      metrics::Registry::Global().counter("sanitize.accepted");
  static metrics::Counter* rejected =
      metrics::Registry::Global().counter("sanitize.rejected");
  static metrics::Counter* repaired =
      metrics::Registry::Global().counter("sanitize.repaired_samples");

  Sanitized out;
  Status status = Analyze(series, options, options.repair, &out.report,
                          &out.series);
  if (!status.ok()) {
    rejected->Increment();
    return status;
  }
  accepted->Increment();
  repaired->Increment(static_cast<uint64_t>(out.report.repaired_samples));
  if (!options.repair) out.series = series;  // analysis must not leak repairs
  return out;
}

}  // namespace triad::data
