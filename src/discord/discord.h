#ifndef TRIAD_DISCORD_DISCORD_H_
#define TRIAD_DISCORD_DISCORD_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "discord/mass.h"

/// \file
/// Variable-length discord discovery: DRAG, MERLIN, MERLIN++ and the exact
/// per-length matrix-profile sweep the detector runs (ExactDiscords).
///
/// **MassContext reuse rules** (ARCHITECTURE.md §7): every algorithm here
/// prices its distance work against one MassContext per series —
/// Merlin/MerlinPlusPlus build it internally and share it across the whole
/// length sweep (prefix sums serve every length's rolling stats; lengths
/// with the same padded FFT size share one series spectrum). A context is
/// valid for a series snapshot: it never observes appends, so when the
/// underlying stream grows, build a new context over the new buffer
/// (cheap: O(n) prefix sums + one lazy FFT). Contexts are safe to share
/// across pool workers (const methods only).

namespace triad::discord {

/// \brief A time-series discord: the subsequence whose nearest non-trivial
/// match is farthest away.
struct Discord {
  int64_t position = -1;  ///< start index of the discord subsequence
  int64_t length = 0;     ///< subsequence length m
  double distance = 0.0;  ///< z-normalized Euclidean distance to its NN
};

/// \brief Work counters for the algorithm-comparison benches.
struct DiscordStats {
  int64_t candidates_after_phase1 = 0;
  int64_t pointwise_distance_ops = 0;   ///< early-abandon scalar iterations
  int64_t distance_profiles = 0;        ///< full MASS profile evaluations
  int64_t restarts = 0;                 ///< DRAG re-runs after range failures
};

/// \brief Exact top-1 discord of length m via the full matrix profile.
/// O(n^2 log n); reference implementation for tests.
Result<Discord> BruteForceDiscord(const std::vector<double>& series,
                                  int64_t m);

/// \brief DRAG (Yankov, Keogh & Rebbapragada): two-phase discord discovery
/// with a range parameter r.
///
/// Returns the top discord whose nearest-neighbour distance is >= r, or
/// nullopt if no subsequence qualifies (the caller should lower r and retry,
/// which is exactly what MERLIN automates). `stats` may be null.
///
/// Phase 1 (candidate pruning) is order-dependent and runs serially; phase 2
/// refines each surviving candidate as an independent pool task, with an
/// ordered strictly-greater reduction that reproduces the serial tie-break.
Result<std::optional<Discord>> DragDiscord(const std::vector<double>& series,
                                           int64_t m, double r,
                                           DiscordStats* stats = nullptr);

/// \brief Result of a MERLIN run: the top discord for every length in the
/// requested range (lengths whose search degenerated are skipped).
struct MerlinResult {
  std::vector<Discord> discords;
  DiscordStats stats;
};

/// \brief MERLIN (Nakamura et al., ICDM'20): parameter-free discovery of the
/// top discord at every length in [min_length, max_length].
///
/// Each length is an independent DRAG search with its own deterministic
/// range control: r seeds just under 2*sqrt(m) and halves on failure until
/// a discord qualifies. Because DRAG returns the exact top-1 discord for
/// any admissible r, this finds the same discords as the paper's serial
/// r-prediction chain (which only saves restarts) — and it makes the
/// length sweep embarrassingly parallel. Lengths run as pool tasks on
/// DefaultPool() and results combine in ascending-length order, so output
/// is bit-identical at any TRIAD_NUM_THREADS (see ARCHITECTURE.md §3).
/// `length_step` > 1 searches every step-th length (a speed/coverage knob
/// used by TriAD's restricted search).
Result<MerlinResult> Merlin(const std::vector<double>& series,
                            int64_t min_length, int64_t max_length,
                            int64_t length_step = 1);

/// \brief MERLIN++-style accelerated variant: identical output, but the
/// phase-2 nearest-neighbour confirmation orders candidates' comparisons by
/// an Orchard-style reference-point lower bound so most distance
/// computations abandon early. Parallelized the same way as Merlin():
/// per-length tasks plus per-candidate phase-2 refinement, both with
/// thread-count-independent results.
Result<MerlinResult> MerlinPlusPlus(const std::vector<double>& series,
                                    int64_t min_length, int64_t max_length,
                                    int64_t length_step = 1);

/// \brief Exact top discord at every length in [min_length, max_length]
/// (every `length_step`-th), by a matrix-profile sweep per length — the
/// detector's stage-3 search (ARCHITECTURE.md §7, "Search-layer reuse").
///
/// Same contract and validation as Merlin(): one Discord per length whose
/// top nearest-neighbour (NN) distance is at least 1e-9, in ascending
/// length order, bit-identical at any TRIAD_NUM_THREADS and SIMD tier.
/// Per length the output is exact with one tie rule: the lowest start
/// position among rows with the largest NN distance, reported with that
/// distance. Distances are ZNormDistanceEarlyAbandon on Stats(m), the
/// arithmetic DRAG uses, so they are bit-identical to Merlin's; Merlin
/// breaks exact ties by its candidate order instead, so only tied
/// positions can differ. Conventions are Merlin's: non-trivial pairs have
/// |i - j| >= m; a flat window (stddev < 1e-12) is +inf from a non-flat
/// one and 0 from another flat one; rows with no finite NN never qualify.
///
/// Each length sweeps the upper triangle of the matrix profile once, in
/// O(n^2) time and O(n) memory, ranking rows by Pearson correlation
/// (simd::CorrRowMax); the rows whose approximate NN distance could still
/// reach the top under a derived rounding bound are then re-scored with
/// the direct distance, four columns at a time
/// (simd::ZNormDistEarlyAbandon4). Lengths run in a fixed number of
/// contiguous chunks, each carrying the first row's dot products from one
/// length to the next. `stats.pointwise_distance_ops` counts that
/// re-scoring as m per pair evaluated: four per four-column batch (lanes
/// past the point where a row stops included), one per pair run alone (a
/// segment's last columns, a pair re-run at a lower limit) and one per
/// exact recomputation. The other DiscordStats fields stay 0.
Result<MerlinResult> ExactDiscords(const std::vector<double>& region,
                                   int64_t min_length, int64_t max_length,
                                   int64_t length_step = 1);

}  // namespace triad::discord

#endif  // TRIAD_DISCORD_DISCORD_H_
