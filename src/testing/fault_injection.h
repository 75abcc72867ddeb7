#ifndef TRIAD_TESTING_FAULT_INJECTION_H_
#define TRIAD_TESTING_FAULT_INJECTION_H_

#include <cstdint>
#include <string>
#include <vector>

namespace triad::testing {

/// \brief Deterministic corruption taxonomy for the fault-injection suite.
///
/// Each class models a defect real telemetry exhibits (sensor dropouts,
/// transmission spikes, stuck gauges, truncated captures); the severity grid
/// is calibrated against the default data::SanitizeOptions so each
/// (class, severity) cell has a single documented expected outcome — see
/// ExpectedOutcome and ARCHITECTURE.md §5.
enum class FaultClass {
  kNanGap = 0,       ///< contiguous NaN runs (sensor dropout)
  kInfSpike,         ///< isolated +/-Inf samples (transmission glitch)
  kZeroDropout,      ///< runs forced to exactly 0.0 (dead channel)
  kStuckConstant,    ///< runs holding the previous value (stuck gauge)
  kScaleGlitch,      ///< finite samples scaled by a huge factor (unit bug)
  kTruncation,       ///< series cut short (incomplete capture)
};

enum class FaultSeverity {
  kMild = 0,   ///< repairable: detector must accept and stay accurate
  kModerate,   ///< degraded: detector must accept, flags may be set
  kSevere,     ///< beyond repair: detector must reject with InvalidArgument
};

constexpr FaultClass kAllFaultClasses[] = {
    FaultClass::kNanGap,        FaultClass::kInfSpike,
    FaultClass::kZeroDropout,   FaultClass::kStuckConstant,
    FaultClass::kScaleGlitch,   FaultClass::kTruncation,
};
constexpr FaultSeverity kAllFaultSeverities[] = {
    FaultSeverity::kMild, FaultSeverity::kModerate, FaultSeverity::kSevere};

const char* FaultClassToString(FaultClass c);
const char* FaultSeverityToString(FaultSeverity s);

/// What the detector must do with a series carrying this fault
/// (assuming the default SanitizeOptions).
enum class ExpectedOutcome {
  kAccept = 0,  ///< Fit/Detect return OK (possibly with degradation flags)
  kReject,      ///< Fit/Detect return InvalidArgument — never crash
};

ExpectedOutcome ExpectedOutcomeFor(FaultClass c, FaultSeverity s);

/// \brief Applies `(fault, severity)` to a copy of `series`.
///
/// Deterministic: the same (series, fault, severity, seed) always produces
/// the same corrupted output, so every cell of the grid is reproducible.
/// Fault positions avoid the first and last eighth of the series so mild
/// faults never collide with the fixture's planted anomaly margins.
std::vector<double> InjectFault(const std::vector<double>& series,
                                FaultClass fault, FaultSeverity severity,
                                uint64_t seed);

/// "nan-gap/mild" — label for test diagnostics.
std::string FaultCellName(FaultClass c, FaultSeverity s);

// ---- file faults for the serve chaos harness (ARCHITECTURE.md §10) ----

/// \brief Flips one bit of the file, chosen deterministically from `seed`
/// within `[min_offset, file_size)`. Returns false when the file cannot be
/// read/written or is not larger than `min_offset` (callers pass the size
/// of headers they want to spare so the flip lands in the payload).
bool FlipBitInFile(const std::string& path, uint64_t seed,
                   int64_t min_offset = 0);

/// \brief Truncates the file to `keep_bytes` (simulating a crash mid-write
/// when pointed just past a record boundary, or a torn tail when pointed
/// inside one). Returns false when the file is missing or shorter.
bool TruncateFile(const std::string& path, int64_t keep_bytes);

/// Size of the file in bytes, or -1 when it cannot be stat'd.
int64_t FileSize(const std::string& path);

}  // namespace triad::testing

#endif  // TRIAD_TESTING_FAULT_INJECTION_H_
