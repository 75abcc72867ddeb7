#ifndef TRIAD_SIGNAL_WINDOWS_H_
#define TRIAD_SIGNAL_WINDOWS_H_

#include <cstdint>
#include <vector>

namespace triad::signal {

/// \brief Start offsets for sliding windows of `length` with `stride` over a
/// series of `n` points. The final window is pulled back to end exactly at
/// n when the stride does not tile the series (so coverage is complete).
std::vector<int64_t> SlidingWindowStarts(int64_t n, int64_t length,
                                         int64_t stride);

/// Copies the window x[start, start+length).
std::vector<double> ExtractWindow(const std::vector<double>& x, int64_t start,
                                  int64_t length);

/// \brief Z-normalizes in place; series with stddev < eps become all zeros
/// (the discord-discovery convention for flat segments).
void ZNormalizeInPlace(std::vector<double>* x, double eps = 1e-8);

/// Returns a z-normalized copy.
std::vector<double> ZNormalized(const std::vector<double>& x,
                                double eps = 1e-8);

/// Euclidean distance between equal-length vectors.
double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b);

}  // namespace triad::signal

#endif  // TRIAD_SIGNAL_WINDOWS_H_
