#ifndef TRIAD_CORE_VOTING_H_
#define TRIAD_CORE_VOTING_H_

#include <cstdint>
#include <vector>

#include "discord/discord.h"

namespace triad::core {

/// \brief How discord votes are weighted when accumulating the per-point
/// anomaly score (paper Eq. 8 uses uniform votes; Section III-D3 flags
/// normalization / sophisticated weights as future work — implemented here).
enum class VoteWeighting {
  kUniform,           ///< paper Eq. 8: every hit adds exactly 1
  kDistanceWeighted,  ///< discord hits add distance / (2*sqrt(length)),
                      ///< i.e. the length-normalized z-norm NN distance
  kNormalized,        ///< uniform votes rescaled so the max vote is 1
};

/// \brief How the decision threshold delta is derived from the votes.
enum class ThresholdRule {
  kMeanNonzero,  ///< paper default: mean of the votes that are > 0
  kQuantile,     ///< a chosen quantile of the nonzero votes (Fig. 13 sweep)
};

/// \brief Options for the voting stage.
struct VotingOptions {
  VoteWeighting weighting = VoteWeighting::kUniform;
  ThresholdRule threshold_rule = ThresholdRule::kMeanNonzero;
  double threshold_quantile = 0.9;  ///< used when rule == kQuantile
};

/// \brief One nominated window to vote for.
///
/// Ordering contract: callers pass nominated windows in **domain /
/// nomination order**, not suspicion order — RunVoting must not infer
/// priority from position. `score` carries the nominator's suspicion
/// measure (the detector uses the nearest-window deviation from the
/// training data; higher = more suspicious); the exception rule uses it
/// to pick which window to trust. Windows with equal (or all-default)
/// scores fall back to first-listed order.
struct WindowVote {
  int64_t start = 0;
  int64_t length = 0;
  double score = 0.0;
};

/// \brief Output of the voting stage.
struct VotingResult {
  std::vector<double> votes;   ///< per test point
  double threshold = 0.0;      ///< delta
  std::vector<int> predictions;
  bool exception_applied = false;
};

/// \brief Accumulates window and discord votes over `n` points, derives the
/// threshold, and applies the exception rule of Section IV-G: when no
/// predicted point falls inside any nominated window, the most suspicious
/// nominated window (highest WindowVote::score; ties and all-default
/// scores fall back to the first listed) is trusted wholesale.
///
/// Non-finite discord distances (the +inf flat-window sentinel, or NaN
/// from upstream numerical failure) never poison the vote array: under
/// kDistanceWeighted a +inf distance clamps to the maximum weight 1 and a
/// NaN distance contributes nothing.
VotingResult RunVoting(int64_t n, const std::vector<WindowVote>& windows,
                       const std::vector<discord::Discord>& discords,
                       const VotingOptions& options);

}  // namespace triad::core

#endif  // TRIAD_CORE_VOTING_H_
