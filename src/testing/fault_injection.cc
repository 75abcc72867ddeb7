#include "testing/fault_injection.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "common/check.h"
#include "common/rng.h"

namespace triad::testing {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Mild and moderate faults are planted near n/16 (plus a small seeded
// jitter), which is always inside the generator fixtures' anomaly-free
// leading margin (the planted anomaly starts >= 2 periods from the edges),
// so a mild fault never overlaps the anomaly it must not mask.
int64_t SafeStart(int64_t n, Rng* rng) {
  return n / 16 + rng->UniformInt(0, 7);
}

void FillRun(std::vector<double>* out, int64_t begin, int64_t len,
             double value) {
  const int64_t n = static_cast<int64_t>(out->size());
  for (int64_t i = begin; i < std::min(n, begin + len); ++i) {
    (*out)[static_cast<size_t>(i)] = value;
  }
}

}  // namespace

const char* FaultClassToString(FaultClass c) {
  switch (c) {
    case FaultClass::kNanGap:
      return "nan-gap";
    case FaultClass::kInfSpike:
      return "inf-spike";
    case FaultClass::kZeroDropout:
      return "zero-dropout";
    case FaultClass::kStuckConstant:
      return "stuck-constant";
    case FaultClass::kScaleGlitch:
      return "scale-glitch";
    case FaultClass::kTruncation:
      return "truncation";
  }
  return "unknown";
}

const char* FaultSeverityToString(FaultSeverity s) {
  switch (s) {
    case FaultSeverity::kMild:
      return "mild";
    case FaultSeverity::kModerate:
      return "moderate";
    case FaultSeverity::kSevere:
      return "severe";
  }
  return "unknown";
}

std::string FaultCellName(FaultClass c, FaultSeverity s) {
  return std::string(FaultClassToString(c)) + "/" + FaultSeverityToString(s);
}

ExpectedOutcome ExpectedOutcomeFor(FaultClass c, FaultSeverity s) {
  // Severe always exceeds a SanitizeOptions threshold; mild and moderate are
  // always within them. The one asymmetric cell is a severe NaN gap, which
  // rejects on gap length rather than damage fraction — same outcome.
  (void)c;
  return s == FaultSeverity::kSevere ? ExpectedOutcome::kReject
                                     : ExpectedOutcome::kAccept;
}

std::vector<double> InjectFault(const std::vector<double>& series,
                                FaultClass fault, FaultSeverity severity,
                                uint64_t seed) {
  std::vector<double> out = series;
  const int64_t n = static_cast<int64_t>(out.size());
  TRIAD_CHECK_GE(n, 64);  // fixtures are always far longer
  Rng rng(seed);
  const int64_t start = SafeStart(n, &rng);
  // The middle band [n/8, 7n/8) hosts the bulk corruption of severe cells.
  const int64_t band_lo = n / 8;
  const int64_t band_hi = 7 * n / 8;

  switch (fault) {
    case FaultClass::kNanGap:
      // Gaps <= 16 samples interpolate; a 40-sample gap exceeds
      // SanitizeOptions::max_interpolate_gap and must reject.
      if (severity == FaultSeverity::kMild) {
        FillRun(&out, start, 4, kNaN);
      } else if (severity == FaultSeverity::kModerate) {
        FillRun(&out, start, 12, kNaN);
        FillRun(&out, start + 24, 12, kNaN);
        FillRun(&out, start + 48, 12, kNaN);
      } else {
        FillRun(&out, std::max(band_lo, start), 40, kNaN);
      }
      break;

    case FaultClass::kInfSpike:
      // Isolated one-sample spikes interpolate; corrupting every other
      // sample of the middle band (37.5% of the series) exceeds
      // max_damage_fraction and must reject.
      if (severity == FaultSeverity::kMild) {
        out[static_cast<size_t>(start)] = kInf;
        out[static_cast<size_t>(start + 8)] = -kInf;
      } else if (severity == FaultSeverity::kModerate) {
        for (int64_t k = 0; k < 12; ++k) {
          out[static_cast<size_t>(start + 4 * k)] = k % 2 == 0 ? kInf : -kInf;
        }
      } else {
        for (int64_t i = band_lo; i < band_hi; i += 2) {
          out[static_cast<size_t>(i)] = kInf;
        }
      }
      break;

    case FaultClass::kZeroDropout:
      // Runs under SanitizeOptions::stuck_run_length go unrecorded; a
      // 100-sample run is recorded but tolerated; zeroing the whole middle
      // band (75%) exceeds max_stuck_fraction and must reject.
      if (severity == FaultSeverity::kMild) {
        FillRun(&out, start, 24, 0.0);
      } else if (severity == FaultSeverity::kModerate) {
        FillRun(&out, start, 100, 0.0);
      } else {
        FillRun(&out, band_lo, band_hi - band_lo, 0.0);
      }
      break;

    case FaultClass::kStuckConstant: {
      // Same grid as kZeroDropout but holding the last good value, the way
      // a wedged gauge actually fails.
      const auto hold = [&](int64_t begin, int64_t len) {
        const double v = out[static_cast<size_t>(std::max<int64_t>(0, begin - 1))];
        FillRun(&out, begin, len, v);
      };
      if (severity == FaultSeverity::kMild) {
        hold(start, 24);
      } else if (severity == FaultSeverity::kModerate) {
        hold(start, 100);
      } else {
        hold(band_lo, band_hi - band_lo);
      }
      break;
    }

    case FaultClass::kScaleGlitch: {
      // Additive excursions far beyond the robust glitch fence; winsorized
      // back into range when few, rejected when they dominate the series.
      const auto spike = [&](int64_t i, double magnitude) {
        out[static_cast<size_t>(i)] += (i % 2 == 0 ? magnitude : -magnitude);
      };
      if (severity == FaultSeverity::kMild) {
        spike(start, 1e3);
        spike(start + 8, 1e3);
      } else if (severity == FaultSeverity::kModerate) {
        for (int64_t k = 0; k < 12; ++k) spike(start + 4 * k, 1e6);
      } else {
        for (int64_t i = band_lo; i < band_hi; i += 3) spike(i, 1e8);
      }
      break;
    }

    case FaultClass::kTruncation:
      // Dropping the 3% tail keeps every window; half the series still
      // holds several windows; an eighth is shorter than one window and
      // must reject.
      if (severity == FaultSeverity::kMild) {
        out.resize(static_cast<size_t>(n - n * 3 / 100));
      } else if (severity == FaultSeverity::kModerate) {
        out.resize(static_cast<size_t>(n / 2));
      } else {
        out.resize(static_cast<size_t>(n / 8));
      }
      break;
  }
  return out;
}

bool FlipBitInFile(const std::string& path, uint64_t seed,
                   int64_t min_offset) {
  std::fstream file(path,
                    std::ios::binary | std::ios::in | std::ios::out);
  if (!file) return false;
  file.seekg(0, std::ios::end);
  const int64_t size = static_cast<int64_t>(file.tellg());
  if (size <= min_offset) return false;
  Rng rng(seed);
  const int64_t offset =
      min_offset + rng.UniformInt(0, size - min_offset - 1);
  const int bit = static_cast<int>(rng.UniformInt(0, 7));
  file.seekg(offset);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ (1 << bit));
  file.seekp(offset);
  file.write(&byte, 1);
  return static_cast<bool>(file);
}

bool TruncateFile(const std::string& path, int64_t keep_bytes) {
  if (FileSize(path) < keep_bytes) return false;
  return ::truncate(path.c_str(), static_cast<off_t>(keep_bytes)) == 0;
}

int64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<int64_t>(st.st_size);
}

}  // namespace triad::testing
