#include "discord/stomp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "discord/mass.h"

namespace triad::discord {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Rows per parallel chunk. Each chunk seeds its first dot-product row with
// one FFT pass and slides serially inside the chunk, so the decomposition
// (and therefore every floating-point result) is fixed by this constant
// alone — never by the thread count. Large enough that the per-chunk FFT
// seed is amortized over thousands of O(1) sliding updates.
constexpr int64_t kStompChunkRows = 2048;

}  // namespace

Result<MatrixProfile> Stomp(const std::vector<double>& series, int64_t m) {
  const int64_t n = static_cast<int64_t>(series.size());
  if (m < 2) return Status::InvalidArgument("subsequence length must be >= 2");
  if (2 * m > n) {
    return Status::InvalidArgument(
        "series too short for non-trivial matches at this length");
  }
  const int64_t count = n - m + 1;
  const int64_t exclusion = m;
  // One amortization context for every chunk seed: the rolling stats come
  // from its prefix sums and each FFT row reuses the cached series spectrum
  // (one series-side transform for the whole profile instead of one per
  // chunk). Bit-identical to from-scratch FFT rows (ARCHITECTURE.md §7).
  const MassContext ctx(series);

  MatrixProfile profile;
  profile.distances.assign(static_cast<size_t>(count), kInf);
  profile.indices.assign(static_cast<size_t>(count), -1);

  const RollingStats stats = ctx.Stats(m);

  // Dot products of subsequence i with every subsequence j, via one FFT
  // pass against the cached spectrum: QT_i[j] = dot(sub_i, sub_j).
  const auto FftRow = [&](int64_t i) {
    std::vector<double> row(static_cast<size_t>(count));
    ctx.SlidingDotsInto(series.data() + i, m, row.data());
    return row;
  };
  // Row 0 doubles as the symmetry source for every chunk's sliding updates:
  // QT_i[0] = QT_0[i].
  const std::vector<double> first_row = FftRow(0);

  // Chunks of rows; each chunk seeds its first row with an FFT pass (chunk
  // 0 reuses row 0) and applies the O(1) sliding update within the chunk.
  static metrics::Counter* rows_counter =
      metrics::Registry::Global().counter("stomp.rows");
  ParallelFor(0, count, kStompChunkRows, [&](int64_t row_begin,
                                             int64_t row_end) {
    rows_counter->Increment(static_cast<uint64_t>(row_end - row_begin));
    std::vector<double> qt =
        row_begin == 0 ? first_row : FftRow(row_begin);
    std::vector<double> dist(static_cast<size_t>(count));
    for (int64_t i = row_begin; i < row_end; ++i) {
      if (i > row_begin) {
        // O(1) sliding update per cell (vectorized kernel, back to front):
        // QT_i[j] = QT_{i-1}[j-1] - x[i-1]x[j-1] + x[i+m-1]x[j+m-1].
        simd::SlidingDotUpdate(qt.data(), count,
                               series[static_cast<size_t>(i - 1)],
                               series.data(),
                               series[static_cast<size_t>(i + m - 1)],
                               series.data() + m);
        qt[0] = first_row[static_cast<size_t>(i)];  // QT_i[0] = QT_0[i]
      }
      // Whole distance row at once (elementwise, bit-identical across SIMD
      // tiers), then a scalar argmin honoring the exclusion zone.
      simd::ZNormDistRow(qt.data(), stats.mean.data(), stats.stddev.data(),
                         stats.mean[static_cast<size_t>(i)],
                         stats.stddev[static_cast<size_t>(i)], m, dist.data(),
                         count);
      double best = kInf;
      int64_t best_j = -1;
      for (int64_t j = 0; j < count; ++j) {
        if (std::llabs(j - i) < exclusion) continue;
        const double d = dist[static_cast<size_t>(j)];
        if (d < best) {
          best = d;
          best_j = j;
        }
      }
      profile.distances[static_cast<size_t>(i)] = best;
      profile.indices[static_cast<size_t>(i)] = best_j;
    }
  });
  return profile;
}

std::vector<int64_t> TopDiscordsFromProfile(const MatrixProfile& profile,
                                            int64_t m, int64_t k) {
  std::vector<int64_t> order(profile.distances.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return profile.distances[static_cast<size_t>(a)] >
           profile.distances[static_cast<size_t>(b)];
  });
  std::vector<int64_t> top;
  for (int64_t candidate : order) {
    if (!std::isfinite(profile.distances[static_cast<size_t>(candidate)])) {
      continue;
    }
    bool overlaps = false;
    for (int64_t kept : top) {
      overlaps = overlaps || std::llabs(candidate - kept) < m;
    }
    if (!overlaps) top.push_back(candidate);
    if (static_cast<int64_t>(top.size()) >= k) break;
  }
  return top;
}

}  // namespace triad::discord
