#ifndef TRIAD_CORE_DETECTOR_H_
#define TRIAD_CORE_DETECTOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/config.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/sanitize.h"
#include "discord/discord.h"
#include "discord/mass.h"

namespace triad::core {

/// \brief Everything a TriAD inference pass produces, including the
/// intermediate artifacts the paper's case study (Figs. 10-13) visualizes.
struct DetectionResult {
  /// Final 0/1 point predictions over the test series.
  std::vector<int> predictions;

  // --- interpretability artifacts ---
  int64_t window_length = 0;
  int64_t stride = 0;
  std::vector<int64_t> window_starts;
  /// Mean pairwise cosine similarity of each window, one row per enabled
  /// domain (Fig. 11); lower = more deviant.
  std::vector<std::vector<double>> domain_similarity;
  /// Candidate window index nominated by each enabled domain (tri-window).
  std::vector<int64_t> candidate_windows;
  /// The single most suspicious window (index into window_starts).
  int64_t selected_window = -1;
  /// Padded discord search region, test coordinates (Fig. 7 numerator).
  int64_t search_begin = 0;
  int64_t search_end = 0;
  /// Variable-length discords found in the region, test coordinates.
  std::vector<discord::Discord> discords;
  /// Per-point votes (Eq. 8) and the threshold delta used.
  std::vector<double> votes;
  double vote_threshold = 0.0;
  /// Whether the Fig. 15 exception (discords missed the window) fired.
  bool exception_applied = false;

  // --- graceful-degradation flags (ARCHITECTURE.md §5) ---
  /// What the sanitizer found (and repaired) in the test series before the
  /// pipeline ran. `sanitize_report.clean()` means the input was pristine.
  data::SanitizeReport sanitize_report;
  /// True when the period estimate's confidence was below
  /// TriadConfig::min_period_confidence and the configured fallback period
  /// drove the segmentation instead (set at Fit time, echoed per result).
  bool period_fallback = false;
  /// True when the residual domain was disabled at Fit time because the
  /// decomposition produced a degenerate residual.
  bool residual_domain_disabled = false;

  // --- stage timings in seconds (Section III-E, Table IV) ---
  double encode_seconds = 0.0;
  double tri_window_seconds = 0.0;
  double selection_seconds = 0.0;
  double discord_seconds = 0.0;

  double TotalSeconds() const {
    return encode_seconds + tri_window_seconds + selection_seconds +
           discord_seconds;
  }
};

/// \brief Cross-pass memo for the streaming incremental hot path
/// (ARCHITECTURE.md §8).
///
/// A StreamingTriad scores a sliding buffer whose content overlaps the
/// previous pass almost entirely, and stream data is append-only: the bytes
/// at a global stream index never change once ingested. Every cache below is
/// therefore keyed by *global* coordinates, which identify content exactly,
/// and every cached value is the stored result of the identical computation
/// the from-scratch pass would run — so a memoized pass is bit-identical to
/// a full recompute by construction (core_test's MemoizedDetectEqualsDetect
/// and the golden/chunking tests in tests/streaming_test.cc enforce it on
/// both SIMD tiers).
///
/// Three stages consult it: encode (per-window encodings), selection
/// (per-window deviations) and the discord search (per-region results).
/// Each is an optional cache inside the one detector pass: a lookup that
/// misses runs the stage's normal code and stores the result, and a pass
/// without a memo misses every lookup. The pairwise similarity scan is not
/// cached: at streaming shapes (about a dozen windows of 40-160 floats) a
/// map lookup per pair costs more than the dot product it would replace.
///
/// The memo is only consulted on passes whose sanitize report is clean: a
/// repaired buffer no longer equals the raw stream content, so its windows
/// must not be looked up by (or inserted under) global keys. Dirty passes
/// run without it and leave it untouched.
///
/// Memory stays bounded by the buffer: Detect evicts every key that slid
/// out of the active window and caps the MERLIN region cache at
/// kMerlinEntries. Not thread-safe — one memo belongs to one stream.
///
/// **One memo, one stream.** The global keys identify content only within a
/// single stream: two streams with identical prefixes but divergent
/// suffixes produce identical keys for *different* bytes, so a memo that
/// migrated between streams would serve stale results that are silently
/// wrong. Multi-tenant callers (serve::FleetServer) must therefore keep one
/// memo per tenant, never pool them. BindStream enforces the invariant:
/// the first bind stamps the owning stream's uid and every later bind to a
/// different uid is a checked programming error (tests/serve_test.cc).
struct DetectMemo {
  /// MERLIN region cache entries kept (LRU); regions are small and results
  /// are a handful of discords, so this is a few KB. Sized above the number
  /// of interior windows of a large (8-12 window) streaming buffer so every
  /// selected window's region survives its whole residence in the buffer.
  static constexpr size_t kMerlinEntries = 64;

  /// Per-domain window encodings keyed by global window start
  /// (slot index = static_cast<int>(Domain)).
  std::array<std::unordered_map<int64_t, std::vector<float>>, 3> encodings;
  /// Candidate deviation against the training series, keyed by global
  /// window start.
  std::unordered_map<int64_t, double> deviations;

  /// One cached region search: the exact result of
  /// discord::ExactDiscords(stream[begin, end), ...) with discords in region
  /// coordinates.
  struct MerlinEntry {
    int64_t begin = 0;  ///< global, inclusive
    int64_t end = 0;    ///< global, exclusive
    discord::MerlinResult result;
    uint64_t last_used = 0;
  };
  std::vector<MerlinEntry> merlin;
  uint64_t tick = 0;  ///< LRU clock for the MERLIN entries

  /// The uid of the stream whose content this memo caches; 0 = not yet
  /// bound. Stamped by the first BindStream and immutable afterwards.
  uint64_t stream_uid = 0;

  /// Claims this memo for the stream with the given (nonzero) uid. The
  /// first call binds; a later call with a different uid aborts — global
  /// keys from two streams alias each other, so cross-stream reuse would
  /// silently serve one tenant another tenant's cached results.
  void BindStream(uint64_t uid);

  /// Drops every entry whose content has slid out of the buffer that now
  /// starts at `global_start`.
  void EvictBefore(int64_t global_start);
};

/// Allocates a process-unique nonzero stream uid (atomic counter). Every
/// StreamingTriad takes one at construction and binds its memo to it.
uint64_t NextStreamUid();

/// \brief The end-to-end TriAD anomaly detector.
///
/// Usage:
///   TriadDetector detector(config);
///   TRIAD_RETURN_NOT_OK(detector.Fit(train));   // normal data only
///   auto result = detector.Detect(test);
///
/// Threading: the inference hot paths — per-domain window encoding,
/// pairwise-similarity scans, candidate deviation scoring, and the discord
/// length sweep — fan out on DefaultPool() (sized by TRIAD_NUM_THREADS).
/// Every decomposition uses fixed chunking and ordered reductions, so
/// detections are bit-identical at any thread count; see ARCHITECTURE.md §3.
/// A detector is safe to share across threads for concurrent Detect() calls
/// only after Fit()/Load() has completed (Detect is const, and each
/// caller's pool batches run beside the others', each caller waiting only
/// for its own).
class TriadDetector {
 public:
  explicit TriadDetector(TriadConfig config = TriadConfig());

  /// Estimates the period, slices windows of ~2.5 periods (stride L/4),
  /// and trains the tri-domain contrastive model on the training series.
  Status Fit(const std::vector<double>& train_series);

  /// Runs the full inference pipeline of Section III-D on a test series
  /// containing (at most) one anomaly event.
  Result<DetectionResult> Detect(const std::vector<double>& test_series) const;

  /// \brief Detect with cross-pass memoization — the streaming hot path
  /// (ARCHITECTURE.md §8).
  ///
  /// `test_series` is the sliding buffer and `global_start` the global
  /// stream index of its first sample; `memo` carries content-keyed caches
  /// across passes. Produces a DetectionResult bit-identical to
  /// Detect(test_series): cache hits substitute the stored result of the
  /// identical computation, misses run the normal code and populate the
  /// memo. Passes whose sanitizer modifies the buffer bypass the memo
  /// entirely (see DetectMemo). Passing memo == nullptr is exactly
  /// Detect(test_series).
  Result<DetectionResult> Detect(const std::vector<double>& test_series,
                                 DetectMemo* memo, int64_t global_start) const;

  /// \brief Multi-event extension beyond the paper's single-event protocol.
  ///
  /// Each domain nominates its `max_events` least-similar windows; the
  /// nominees are ranked by deviation from the training data and up to
  /// `max_events` non-overlapping ones are kept, the discord search runs
  /// around each, and one vote merges them. `selected_window` and
  /// `search_begin`/`search_end` describe the most deviant kept window.
  /// max_events = 1 is Detect(test_series); max_events < 1 is
  /// InvalidArgument.
  Result<DetectionResult> DetectEvents(const std::vector<double>& test_series,
                                       int64_t max_events) const;

  /// Writes a fitted detector (config, segmentation state, training series
  /// and model weights) to a binary checkpoint.
  Status Save(const std::string& path) const;

  /// Restores a detector saved by Save(); ready to Detect() immediately.
  static Result<TriadDetector> Load(const std::string& path);

  int64_t period() const { return period_; }
  int64_t window_length() const { return window_length_; }
  int64_t stride() const { return stride_; }
  const TrainStats& train_stats() const { return train_stats_; }
  const TriadModel& model() const { return *model_; }
  const TriadConfig& config() const { return config_; }

  // --- graceful-degradation state established by Fit (ARCHITECTURE.md §5) ---
  /// ACF confidence of the estimated period (1.0 before Fit / after Load of
  /// a pre-confidence checkpoint).
  double period_confidence() const { return period_confidence_; }
  /// True when Fit segmented on the fallback period instead of the estimate.
  bool period_fallback() const { return period_fallback_; }
  /// True when Fit disabled the residual domain (degenerate decomposition).
  bool residual_domain_disabled() const { return residual_disabled_; }
  /// Sanitizer findings on the training series.
  const data::SanitizeReport& train_sanitize_report() const {
    return train_report_;
  }

 private:
  /// The one inference pass behind Detect and DetectEvents (Section III-D):
  /// sanitize and slice, encode, nominate `max_events` windows per domain,
  /// select up to `max_events` non-overlapping ones against the training
  /// data, search discords around each, vote. `memo` (nullable) caches the
  /// encode, selection and region stages across passes over one stream whose
  /// buffer starts at `global_start`.
  Result<DetectionResult> RunPass(const std::vector<double>& test_series,
                                  int64_t max_events, DetectMemo* memo,
                                  int64_t global_start) const;

  /// Normalized representations of windows[rows[k]] for one domain, encoded
  /// in mini-batches; rows are unit vectors of length L.
  std::vector<std::vector<float>> EncodeWindows(
      Domain domain, const std::vector<std::vector<double>>& windows,
      const std::vector<int64_t>& rows) const;

  TriadConfig config_;
  std::unique_ptr<TriadModel> model_;
  TrainStats train_stats_;
  std::vector<double> train_series_;
  /// Nearest-window index over train_series_ at window_length_, built by
  /// Fit and Load; every candidate's deviation is one scan of it.
  discord::NearestWindowIndex train_index_;
  int64_t period_ = 0;
  int64_t window_length_ = 0;
  int64_t stride_ = 0;
  double period_confidence_ = 1.0;
  bool period_fallback_ = false;
  bool residual_disabled_ = false;
  data::SanitizeReport train_report_;
};

/// True when window [start, start + length) overlaps [begin, end).
bool WindowOverlapsRange(int64_t start, int64_t length, int64_t begin,
                         int64_t end);

}  // namespace triad::core

#endif  // TRIAD_CORE_DETECTOR_H_
