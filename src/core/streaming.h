#ifndef TRIAD_CORE_STREAMING_H_
#define TRIAD_CORE_STREAMING_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/detector.h"

namespace triad::core {

/// \brief A contiguous alarm span in global stream coordinates.
struct AlarmEvent {
  int64_t begin = 0;  ///< inclusive
  int64_t end = 0;    ///< exclusive
};

/// \brief A span of the stream no inference pass could score — the buffered
/// data was too corrupted for Detect (sanitize rejection). The timeline
/// stays 0 over a gap; consumers that must fail closed should treat gap
/// spans as unknown rather than nominal. See ARCHITECTURE.md §5.
struct TimelineGap {
  int64_t begin = 0;  ///< inclusive
  int64_t end = 0;    ///< exclusive
};

/// \brief The complete resumable state of a StreamingTriad, as plain data.
///
/// Everything Append consults when deciding what the next pass does —
/// buffer contents and position, hop phase, the alarm timeline, gaps and
/// pass counters — so a stream restored from an exported state produces
/// bit-identical output to one that never stopped (the serve layer's
/// recovery contract, ARCHITECTURE.md §10). Deliberately NOT included:
/// the DetectMemo (a pure cache — dropping it costs one warm-up pass of
/// recompute, never a different answer) and the stream uid (identity is
/// per-process; RestoreState binds a fresh one).
struct StreamingState {
  int64_t total_points = 0;
  int64_t passes = 0;
  int64_t failed_passes = 0;
  int64_t since_last_pass = 0;
  int64_t buffer_global_start = 0;
  std::vector<double> buffer;
  std::vector<int> alarms;
  std::vector<TimelineGap> gaps;
};

/// \brief Options for StreamingTriad.
struct StreamingOptions {
  /// Points scored per inference pass; 0 = 4 windows of the detector.
  int64_t buffer_length = 0;
  /// New points between passes; 0 = one detector stride.
  int64_t hop = 0;
  /// Cross-pass memoization (the ARCHITECTURE.md §8 hot path). On by
  /// default; false runs every pass without a memo (full recompute).
  /// Alarms, passes and gaps are bit-identical either way — the memo only
  /// substitutes stored results of the identical computations (enforced by
  /// tests/streaming_test.cc on both SIMD tiers).
  bool incremental = true;
};

/// \brief O(1)-per-point rolling statistics over the last `capacity` stream
/// samples (the streaming buffer's ring-buffer twin, ARCHITECTURE.md §8).
///
/// Maintains a running sum / sum-of-squares / non-finite count so buffer
/// mean, standard deviation and damage fraction cost O(1) per appended
/// point instead of an O(buffer) rescan per pass.
///
/// Exactness contract: `nonfinite_count()` is integer arithmetic and exact
/// — it is the only output allowed to feed a control decision (the
/// guaranteed-rejection short-circuit in StreamingTriad::Append).
/// `mean()`/`stddev()` accumulate by running add/subtract, so they can
/// drift a few ULPs from a fresh rescan over long streams; they feed
/// observability gauges only, never computation (same discipline as the
/// metrics layer, ARCHITECTURE.md §6). Non-finite samples contribute zero
/// to the moment sums so one NaN cannot poison the gauges.
class RollingStatsRing {
 public:
  explicit RollingStatsRing(int64_t capacity);

  /// Appends one sample, evicting the oldest once full.
  void Push(double value);

  int64_t size() const { return static_cast<int64_t>(ring_.size()); }
  int64_t nonfinite_count() const { return nonfinite_; }
  /// Fraction of current samples that are non-finite (0 when empty).
  double nonfinite_fraction() const;
  /// Mean / population stddev over the finite samples currently held
  /// (0 when none). Observability-grade; see the exactness contract above.
  double mean() const;
  double stddev() const;

 private:
  int64_t capacity_;
  std::vector<double> ring_;  ///< grows to capacity_, then circular
  int64_t next_ = 0;          ///< eviction slot once full
  int64_t nonfinite_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

/// \brief Online wrapper around a fitted TriadDetector for the real-time
/// IIoT deployments the paper's related work targets (e.g. TinyAD).
///
/// Points are appended as they arrive; every `hop` new points the detector
/// scores the most recent `buffer_length` points and merges the flagged
/// points into a global alarm timeline. Memory is bounded by the buffer:
/// the wrapper never retains more than `buffer_length` raw samples (plus
/// the bounded DetectMemo when incremental mode is on).
///
/// Incrementality (ARCHITECTURE.md §8): consecutive passes score buffers
/// that overlap almost entirely, and stream content at a global index never
/// changes once ingested. With `StreamingOptions::incremental` on (the
/// default), the wrapper threads a DetectMemo through
/// TriadDetector::Detect so window encodings, candidate deviations and
/// discord region results are computed once per stream position instead of
/// once per pass. Results are bit-identical to full recompute by
/// construction; `StreamingOptions::incremental = false` selects it.
class StreamingTriad {
 public:
  /// `detector` must outlive this object and already be fitted.
  explicit StreamingTriad(const TriadDetector* detector,
                          StreamingOptions options = StreamingOptions());

  /// \brief Feeds points into the stream; the only mutator.
  ///
  /// Ingests `points` one sample at a time into the sliding buffer. Every
  /// `hop()` new points — once the buffer has filled — one inference pass
  /// scores the buffered span and merges flagged points into the global
  /// alarm timeline. Returns the alarm events that became active during
  /// this call (merged, global stream coordinates). Chunking is
  /// semantics-free: any partition of the same point sequence yields the
  /// same timeline, passes, gaps and events (enforced by
  /// tests/streaming_test.cc).
  ///
  /// Failure modes, from recoverable to fatal:
  ///  * **Sanitize-rejected pass** (corruption beyond the repair
  ///    thresholds, ARCHITECTURE.md §5): does NOT fail the stream. The
  ///    span the pass would have scored is recorded in gaps() (adjacent
  ///    gaps merge), failed_passes() increments, and ingestion continues —
  ///    a burst of bad telemetry must not wedge a long-lived monitor.
  ///    Passes keep running at every hop during a burst; the stream
  ///    recovers on its own as soon as a buffer scores clean again, with
  ///    no reset or flush required (gap recovery). In incremental mode a
  ///    pass whose buffer is *guaranteed* to reject (non-finite fraction
  ///    alone already above SanitizeOptions::max_damage_fraction, tracked
  ///    O(1) by a RollingStatsRing) records the gap without paying for the
  ///    doomed Detect; the outcome is identical.
  ///  * **Repaired-but-accepted pass**: scores normally; the repair count
  ///    feeds the streaming.sanitize_repairs counter. Such passes bypass
  ///    the memo (repaired content no longer equals raw stream content —
  ///    see DetectMemo) but their alarms are unchanged.
  ///  * **FailedPrecondition** (unfitted detector): propagates as an
  ///    error — that is the caller's bug, not a data problem.
  ///
  /// Latency: each pass's wall time feeds the streaming.pass_seconds
  /// histogram; bench/bench_streaming_latency.cc turns that into the
  /// ms-per-chunk budget (BENCH_streaming.json).
  Result<std::vector<AlarmEvent>> Append(const std::vector<double>& points);

  /// The global 0/1 alarm timeline over everything appended so far.
  const std::vector<int>& alarms() const { return alarms_; }

  /// Total points consumed.
  int64_t total_points() const { return total_points_; }

  /// Number of inference passes executed (successful ones).
  int64_t passes() const { return passes_; }

  /// Spans of the stream no pass could score, merged and ordered.
  const std::vector<TimelineGap>& gaps() const { return gaps_; }

  /// Number of passes whose buffer Detect rejected (including passes the
  /// guaranteed-rejection short-circuit skipped).
  int64_t failed_passes() const { return failed_passes_; }

  int64_t buffer_length() const { return buffer_length_; }
  int64_t hop() const { return hop_; }
  /// True when cross-pass memoization is active (StreamingOptions).
  bool incremental() const { return incremental_; }
  /// Process-unique id of this stream; the DetectMemo is bound to it so a
  /// memo can never be (mis)used for another stream whose global keys
  /// alias this one's (see DetectMemo::BindStream, ARCHITECTURE.md §9).
  uint64_t stream_uid() const { return stream_uid_; }

  /// \brief Snapshot of the resumable state (see StreamingState). Cheap
  /// relative to a pass: copies the buffer, timeline and gap list.
  StreamingState ExportState() const;

  /// \brief Replaces this stream's state with `state`, as if every point in
  /// it had been appended here. Validates internal consistency
  /// (InvalidArgument on a state that could not have been produced by
  /// ExportState against this detector's geometry): the timeline must cover
  /// exactly `total_points`, the buffer must be the stream's tail and fit
  /// `buffer_length()`, counters must be non-negative. The rolling stats
  /// ring is rebuilt from the buffer (exact — ring contents are always
  /// identical to buffer contents) and the memo is cleared and bound to a
  /// fresh stream uid, so subsequent passes are bit-identical to an
  /// uninterrupted stream's, at worst one warm-up pass slower.
  Status RestoreState(const StreamingState& state);

 private:
  const TriadDetector* detector_;
  int64_t buffer_length_;
  int64_t hop_;
  bool incremental_;
  std::vector<double> buffer_;      ///< most recent <= buffer_length_ points
  int64_t buffer_global_start_ = 0; ///< global index of buffer_[0]
  int64_t since_last_pass_ = 0;
  int64_t total_points_ = 0;
  int64_t passes_ = 0;
  int64_t failed_passes_ = 0;
  std::vector<int> alarms_;
  std::vector<TimelineGap> gaps_;
  RollingStatsRing ring_;  ///< O(1) buffer stats (incremental mode)
  DetectMemo memo_;        ///< cross-pass caches (incremental mode)
  uint64_t stream_uid_;    ///< from NextStreamUid(); memo_ is bound to it
};

}  // namespace triad::core

#endif  // TRIAD_CORE_STREAMING_H_
