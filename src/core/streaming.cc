#include "core/streaming.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/metrics.h"
#include "common/timer.h"

namespace triad::core {
namespace {

// Streaming health instruments (ARCHITECTURE.md §6). Gauges reflect the
// state of the most recently active StreamingTriad — good enough for the
// single-monitor deployments this class targets.
struct StreamingMetrics {
  metrics::Gauge* buffered_samples =
      metrics::Registry::Global().gauge("streaming.buffered_samples");
  metrics::Gauge* gaps =
      metrics::Registry::Global().gauge("streaming.gaps");
  metrics::Gauge* buffer_mean =
      metrics::Registry::Global().gauge("streaming.buffer_mean");
  metrics::Gauge* buffer_stddev =
      metrics::Registry::Global().gauge("streaming.buffer_stddev");
  metrics::Counter* passes =
      metrics::Registry::Global().counter("streaming.passes");
  metrics::Counter* failed_passes =
      metrics::Registry::Global().counter("streaming.failed_passes");
  metrics::Counter* sanitize_repairs =
      metrics::Registry::Global().counter("streaming.sanitize_repairs");
  metrics::Counter* incremental_passes =
      metrics::Registry::Global().counter("streaming.incremental_passes");
  metrics::Counter* full_passes =
      metrics::Registry::Global().counter("streaming.full_passes");
  metrics::Counter* short_circuit_passes =
      metrics::Registry::Global().counter("streaming.short_circuit_passes");
  metrics::Histogram* pass_seconds =
      metrics::Registry::Global().histogram("streaming.pass_seconds");
};

StreamingMetrics& Instruments() {
  static StreamingMetrics m;
  return m;
}

}  // namespace

RollingStatsRing::RollingStatsRing(int64_t capacity)
    : capacity_(std::max<int64_t>(1, capacity)) {
  ring_.reserve(static_cast<size_t>(capacity_));
}

void RollingStatsRing::Push(double value) {
  if (static_cast<int64_t>(ring_.size()) == capacity_) {
    const double old = ring_[static_cast<size_t>(next_)];
    if (std::isfinite(old)) {
      sum_ -= old;
      sum_sq_ -= old * old;
    } else {
      --nonfinite_;
    }
    ring_[static_cast<size_t>(next_)] = value;
    next_ = (next_ + 1) % capacity_;
  } else {
    ring_.push_back(value);
  }
  if (std::isfinite(value)) {
    sum_ += value;
    sum_sq_ += value * value;
  } else {
    ++nonfinite_;
  }
}

double RollingStatsRing::nonfinite_fraction() const {
  return ring_.empty() ? 0.0
                       : static_cast<double>(nonfinite_) /
                             static_cast<double>(ring_.size());
}

double RollingStatsRing::mean() const {
  const int64_t finite = size() - nonfinite_;
  return finite > 0 ? sum_ / static_cast<double>(finite) : 0.0;
}

double RollingStatsRing::stddev() const {
  const int64_t finite = size() - nonfinite_;
  if (finite <= 0) return 0.0;
  const double mu = sum_ / static_cast<double>(finite);
  const double var = sum_sq_ / static_cast<double>(finite) - mu * mu;
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

StreamingTriad::StreamingTriad(const TriadDetector* detector,
                               StreamingOptions options)
    : detector_(detector),
      incremental_(options.incremental),
      // Ring capacity set below once buffer_length_ is known.
      ring_(1),
      stream_uid_(NextStreamUid()) {
  TRIAD_CHECK(detector != nullptr);  // null detector stays a programming error
  // Claim the memo for this stream up front: its global keys are only
  // meaningful against this stream's content (DetectMemo::BindStream).
  memo_.BindStream(stream_uid_);
  // An unfitted detector (window_length 0) is tolerated here — the first
  // Append pass surfaces it as FailedPrecondition instead of crashing.
  const int64_t wl = std::max<int64_t>(1, detector->window_length());
  buffer_length_ =
      options.buffer_length > 0 ? options.buffer_length : 4 * wl;
  buffer_length_ = std::max(buffer_length_, wl);
  hop_ = options.hop > 0 ? options.hop
                         : std::max<int64_t>(1, detector->stride());
  buffer_.reserve(static_cast<size_t>(buffer_length_));
  ring_ = RollingStatsRing(buffer_length_);
}

Result<std::vector<AlarmEvent>> StreamingTriad::Append(
    const std::vector<double>& points) {
  std::vector<AlarmEvent> new_events;
  for (double value : points) {
    // Slide the buffer.
    if (static_cast<int64_t>(buffer_.size()) == buffer_length_) {
      buffer_.erase(buffer_.begin());
      ++buffer_global_start_;
    }
    buffer_.push_back(value);
    ring_.Push(value);
    ++total_points_;
    ++since_last_pass_;
    alarms_.push_back(0);

    const bool buffer_full =
        static_cast<int64_t>(buffer_.size()) >= buffer_length_;
    if (!buffer_full || since_last_pass_ < hop_) continue;
    since_last_pass_ = 0;

    // Record the span the failed pass would have scored; adjacent gaps
    // merge so a long corrupted burst reads as one unscored region.
    const auto record_gap = [&] {
      ++failed_passes_;
      Instruments().failed_passes->Increment();
      const int64_t gap_end =
          buffer_global_start_ + static_cast<int64_t>(buffer_.size());
      if (!gaps_.empty() && buffer_global_start_ <= gaps_.back().end) {
        gaps_.back().end = std::max(gaps_.back().end, gap_end);
      } else {
        gaps_.push_back({buffer_global_start_, gap_end});
      }
      Instruments().gaps->Set(static_cast<double>(gaps_.size()));
    };

    // Guaranteed-rejection short-circuit (incremental mode): when the
    // non-finite fraction alone already exceeds max_damage_fraction, the
    // sanitizer must reject (its damage fraction is at least the
    // non-finite fraction), so the pass outcome is known without running
    // Detect. The ring count is integer-exact, so this never skips a pass
    // that could have scored. Guarded on a fitted detector so an unfitted
    // one still surfaces FailedPrecondition below.
    if (incremental_ && detector_->window_length() > 0 &&
        ring_.nonfinite_fraction() >
            detector_->config().sanitize.max_damage_fraction) {
      Instruments().short_circuit_passes->Increment();
      record_gap();
      continue;
    }

    // Re-assert memo ownership every pass: a memo that migrated to another
    // stream would serve stale content under aliasing global keys.
    if (incremental_) memo_.BindStream(stream_uid_);
    Timer pass_timer;
    Result<DetectionResult> pass =
        incremental_
            ? detector_->Detect(buffer_, &memo_, buffer_global_start_)
            : detector_->Detect(buffer_);
    Instruments().pass_seconds->Observe(pass_timer.ElapsedSeconds());
    if (incremental_) {
      Instruments().incremental_passes->Increment();
    } else {
      Instruments().full_passes->Increment();
    }
    if (!pass.ok()) {
      // Unusable buffer (sanitize rejection): record the unscored span and
      // keep ingesting — the monitor must survive a burst of bad telemetry.
      // A FailedPrecondition means the detector itself is unusable; that
      // one is the caller's bug and does propagate.
      if (pass.status().code() == StatusCode::kFailedPrecondition) {
        return pass.status();
      }
      record_gap();
      continue;
    }
    DetectionResult result = std::move(pass).value();
    ++passes_;
    Instruments().passes->Increment();
    Instruments().sanitize_repairs->Increment(
        static_cast<uint64_t>(result.sanitize_report.repaired_samples));

    // Merge flagged points into the global timeline; collect spans that
    // are newly alarmed.
    int64_t span_begin = -1;
    for (size_t i = 0; i < result.predictions.size(); ++i) {
      const int64_t global =
          buffer_global_start_ + static_cast<int64_t>(i);
      const bool flagged = result.predictions[i] != 0;
      const bool was_alarmed = alarms_[static_cast<size_t>(global)] != 0;
      if (flagged) alarms_[static_cast<size_t>(global)] = 1;
      if (flagged && !was_alarmed) {
        if (span_begin < 0) span_begin = global;
      } else if (span_begin >= 0) {
        new_events.push_back({span_begin, global});
        span_begin = -1;
      }
    }
    if (span_begin >= 0) {
      new_events.push_back(
          {span_begin,
           buffer_global_start_ +
               static_cast<int64_t>(result.predictions.size())});
    }
  }

  Instruments().buffered_samples->Set(static_cast<double>(buffer_.size()));
  Instruments().buffer_mean->Set(ring_.mean());
  Instruments().buffer_stddev->Set(ring_.stddev());

  // Merge adjacent/overlapping spans reported across passes.
  std::sort(new_events.begin(), new_events.end(),
            [](const AlarmEvent& a, const AlarmEvent& b) {
              return a.begin < b.begin;
            });
  std::vector<AlarmEvent> merged;
  for (const AlarmEvent& e : new_events) {
    if (!merged.empty() && e.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, e.end);
    } else {
      merged.push_back(e);
    }
  }
  return merged;
}

StreamingState StreamingTriad::ExportState() const {
  StreamingState state;
  state.total_points = total_points_;
  state.passes = passes_;
  state.failed_passes = failed_passes_;
  state.since_last_pass = since_last_pass_;
  state.buffer_global_start = buffer_global_start_;
  state.buffer = buffer_;
  state.alarms = alarms_;
  state.gaps = gaps_;
  return state;
}

Status StreamingTriad::RestoreState(const StreamingState& state) {
  const int64_t buffered = static_cast<int64_t>(state.buffer.size());
  if (state.total_points < 0 || state.passes < 0 ||
      state.failed_passes < 0 || state.since_last_pass < 0 ||
      state.buffer_global_start < 0) {
    return Status::InvalidArgument("streaming state: negative counter");
  }
  if (static_cast<int64_t>(state.alarms.size()) != state.total_points) {
    return Status::InvalidArgument(
        "streaming state: timeline does not cover the stream");
  }
  if (state.buffer_global_start + buffered != state.total_points) {
    return Status::InvalidArgument(
        "streaming state: buffer is not the stream's tail");
  }
  if (buffered > buffer_length_) {
    return Status::InvalidArgument(
        "streaming state: buffer exceeds this stream's buffer_length");
  }
  for (const TimelineGap& gap : state.gaps) {
    if (gap.begin < 0 || gap.end <= gap.begin ||
        gap.end > state.total_points) {
      return Status::InvalidArgument("streaming state: malformed gap span");
    }
  }
  total_points_ = state.total_points;
  passes_ = state.passes;
  failed_passes_ = state.failed_passes;
  since_last_pass_ = state.since_last_pass;
  buffer_global_start_ = state.buffer_global_start;
  buffer_ = state.buffer;
  alarms_ = state.alarms;
  gaps_ = state.gaps;
  // The ring always mirrors the buffer exactly, so rebuilding it from the
  // restored buffer reproduces the integer-exact non-finite count (the only
  // ring output that feeds a control decision).
  ring_ = RollingStatsRing(buffer_length_);
  for (double value : buffer_) ring_.Push(value);
  // The memo is a cache, not state: drop it and claim a fresh identity so
  // stale global keys from the pre-restore life cannot alias.
  memo_ = DetectMemo();
  stream_uid_ = NextStreamUid();
  memo_.BindStream(stream_uid_);
  return Status::OK();
}

}  // namespace triad::core
