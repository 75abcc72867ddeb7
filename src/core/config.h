#ifndef TRIAD_CORE_CONFIG_H_
#define TRIAD_CORE_CONFIG_H_

#include <cstdint>

#include "core/voting.h"
#include "data/sanitize.h"

namespace triad::core {

/// \brief All tunables of the TriAD pipeline, defaulting to the paper's
/// published settings (Section IV-A). The benches sweep the fields that the
/// parameter/ablation studies vary.
struct TriadConfig {
  // --- segmentation (Section IV-A2) ---
  double periods_per_window = 2.5;  ///< window covers 2.5x the periodicity
  int64_t stride_divisor = 4;       ///< stride = window_length / 4
  /// Use the Welch-periodogram period estimator instead of the default
  /// DFT+ACF one (more robust on heavily noisy training series).
  bool use_welch_period_estimator = false;

  // --- encoder (Section IV-A4) ---
  int64_t depth = 6;        ///< number of dilated residual blocks
  int64_t hidden_dim = 32;  ///< h_d, channels of the hidden representation
  int64_t kernel_size = 3;

  // --- contrastive training ---
  double alpha = 0.4;       ///< weight of the inter-domain loss (Eq. 7)
  double temperature = 0.2; ///< softmax temperature on normalized dots
  int64_t batch_size = 8;
  double learning_rate = 1e-3;
  int64_t epochs = 20;
  double validation_fraction = 0.1;
  uint64_t seed = 1;

  // --- ablation switches (Section IV-C) ---
  bool use_temporal = true;
  bool use_frequency = true;
  bool use_residual = true;
  bool use_intra_loss = true;
  bool use_inter_loss = true;

  // --- detection (Section III-D) ---
  /// Context padding added before and after the selected window prior to the
  /// MERLIN search, in units of the window length.
  double merlin_padding_windows = 1.0;
  int64_t merlin_min_length = 4;
  /// Max discord length in units of the window length (cap also applies from
  /// the padded region size).
  double merlin_max_length_windows = 1.0;
  /// Step between searched discord lengths (1 = every length, as MERLIN).
  int64_t merlin_length_step = 1;
  /// Vote weighting and thresholding (paper defaults; see voting.h for the
  /// Section III-D3 "enhanced scoring" extensions).
  VotingOptions voting;

  // --- dirty-data hardening (ARCHITECTURE.md §5) ---
  /// Input sanitization applied by Fit/Detect before anything touches the
  /// series: short NaN/Inf gaps are interpolated, scale glitches clamped,
  /// series damaged beyond the thresholds rejected with InvalidArgument.
  data::SanitizeOptions sanitize;
  /// Period used when the estimator's confidence falls below
  /// `min_period_confidence`. 0 = auto: train_length / 20, clamped to
  /// [2, train_length / 3].
  int64_t fallback_period = 0;
  /// Minimum ACF confidence (see signal::PeriodEstimate) for trusting the
  /// estimated period; below it the detector degrades to `fallback_period`
  /// and flags DetectionResult::period_fallback.
  double min_period_confidence = 0.1;

  /// Number of enabled domains.
  int EnabledDomains() const {
    return (use_temporal ? 1 : 0) + (use_frequency ? 1 : 0) +
           (use_residual ? 1 : 0);
  }
};

}  // namespace triad::core

#endif  // TRIAD_CORE_CONFIG_H_
