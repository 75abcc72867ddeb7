#ifndef TRIAD_COMMON_STATS_H_
#define TRIAD_COMMON_STATS_H_

#include <cstdint>
#include <vector>

namespace triad {

/// \brief Small descriptive-statistics helpers shared by metrics, signal
/// processing and the bench harnesses.

/// Arithmetic mean. An empty input returns 0.0 *silently* — callers that
/// need to distinguish "no data" from "mean happens to be zero" must check
/// emptiness themselves (RunVoting does, via its nonzero-votes guard).
double Mean(const std::vector<double>& v);

/// Population standard deviation; returns 0 for fewer than two elements.
double StdDev(const std::vector<double>& v);

/// Minimum / maximum; input must be non-empty.
double Min(const std::vector<double>& v);
double Max(const std::vector<double>& v);

/// Linear-interpolated quantile. Guarded against bad user input (both are
/// reachable from config via ThresholdRule::kQuantile): an empty input
/// returns 0.0, and q is clamped into [0, 1] (NaN treated as 0).
double Quantile(std::vector<double> v, double q);

/// Index of the maximum element; input must be non-empty (first on ties).
int64_t ArgMax(const std::vector<double>& v);

/// Index of the minimum element; input must be non-empty (first on ties).
int64_t ArgMin(const std::vector<double>& v);

}  // namespace triad

#endif  // TRIAD_COMMON_STATS_H_
