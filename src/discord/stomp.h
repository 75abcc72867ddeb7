#ifndef TRIAD_DISCORD_STOMP_H_
#define TRIAD_DISCORD_STOMP_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace triad::discord {

/// \brief The full matrix profile of a series: for each length-m
/// subsequence, the z-normalized distance to its nearest non-trivial match,
/// and that match's index.
struct MatrixProfile {
  std::vector<double> distances;
  std::vector<int64_t> indices;  ///< -1 when no valid neighbour exists
};

/// \brief STOMP (Zhu et al., the paper's refs [27][28]): exact matrix
/// profile in O(n^2) with O(1) sliding dot-product updates — the classical
/// fast path the matrix-profile family builds on, and the reference the
/// discord algorithms are validated against. No detector stage calls it:
/// ExactDiscords (discord.h) sweeps the same per-length profile itself.
Result<MatrixProfile> Stomp(const std::vector<double>& series, int64_t m);

/// Top-k discords from a matrix profile, mutually separated by at least one
/// subsequence length (standard exclusion).
std::vector<int64_t> TopDiscordsFromProfile(const MatrixProfile& profile,
                                            int64_t m, int64_t k);

}  // namespace triad::discord

#endif  // TRIAD_DISCORD_STOMP_H_
