#include "core/detector.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>

#include "common/check.h"
#include "common/deadline.h"
#include "common/durable_io.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/stats.h"
#include "common/trace.h"
#include "core/features.h"
#include "data/sanitize.h"
#include "discord/mass.h"
#include "nn/serialize.h"
#include "signal/decompose.h"
#include "signal/periodogram.h"
#include "signal/windows.h"

namespace triad::core {
namespace {

// Windows shorter than this have too little structure for the FFT features.
constexpr int64_t kMinWindowLength = 16;

// Severely corrupted inputs (a non-finite value the sanitizer could not
// interpolate, damage above the configured thresholds) would silently poison
// the FFTs, the z-normalizations and the training loss, so Fit/Detect run
// every series through data::SanitizeSeries first and propagate its
// InvalidArgument instead of crashing (ARCHITECTURE.md §5).

// User-supplied tunables get a Status here instead of tripping the model
// constructor's TRIAD_CHECKs (those stay for actual programming errors).
Status ValidateConfig(const TriadConfig& c) {
  if (c.depth < 1) return Status::InvalidArgument("depth must be >= 1");
  if (c.hidden_dim < 1) {
    return Status::InvalidArgument("hidden_dim must be >= 1");
  }
  if (c.kernel_size < 1) {
    return Status::InvalidArgument("kernel_size must be >= 1");
  }
  if (c.stride_divisor < 1) {
    return Status::InvalidArgument("stride_divisor must be >= 1");
  }
  if (!(c.periods_per_window > 0.0)) {
    return Status::InvalidArgument("periods_per_window must be > 0");
  }
  if (!(c.temperature > 0.0)) {
    return Status::InvalidArgument("temperature must be > 0");
  }
  if (!(c.learning_rate > 0.0)) {
    return Status::InvalidArgument("learning_rate must be > 0");
  }
  if (c.epochs < 0) return Status::InvalidArgument("epochs must be >= 0");
  if (c.validation_fraction < 0.0 || c.validation_fraction >= 1.0) {
    return Status::InvalidArgument("validation_fraction must be in [0, 1)");
  }
  if (c.EnabledDomains() == 0) {
    return Status::InvalidArgument("at least one domain must be enabled");
  }
  return Status::OK();
}

std::vector<std::vector<double>> SliceWindows(
    const std::vector<double>& series, int64_t length, int64_t stride) {
  std::vector<std::vector<double>> out;
  for (int64_t s : signal::SlidingWindowStarts(
           static_cast<int64_t>(series.size()), length, stride)) {
    out.push_back(signal::ExtractWindow(series, s, length));
  }
  return out;
}

// Rows per chunk of the O(M^2 L) pairwise-similarity scan below; fixed so
// the parallel decomposition never depends on the thread count.
constexpr int64_t kSimilarityGrain = 16;

// Mean pairwise dot product of each window's unit representation against
// every other window (Fig. 11; lower = more deviant). Each row writes only
// its own slot, so rows fan out across the pool deterministically.
std::vector<double> MeanPairwiseSimilarity(
    const std::vector<std::vector<float>>& reps) {
  const int64_t M = static_cast<int64_t>(reps.size());
  std::vector<double> sim(static_cast<size_t>(M), 0.0);
  ParallelFor(0, M, kSimilarityGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      double total = 0.0;
      const auto& a = reps[static_cast<size_t>(i)];
      for (int64_t j = 0; j < M; ++j) {
        if (i == j) continue;
        const auto& b = reps[static_cast<size_t>(j)];
        total += simd::Dot(a.data(), b.data(), static_cast<int64_t>(a.size()));
      }
      sim[static_cast<size_t>(i)] =
          M > 1 ? total / static_cast<double>(M - 1) : 0.0;
    }
  });
  return sim;
}

// Streaming-memo instruments (ARCHITECTURE.md §8). Hit/miss pairs per
// cached stage; `memo_bypass` counts dirty passes that fell back to the
// plain path. All shared-registry counters, so ucr_runner --metrics-json
// and the benches report them alongside the mass.spectrum_* pair.
struct MemoMetrics {
  metrics::Counter* encode_hits =
      metrics::Registry::Global().counter("streaming.encode_hits");
  metrics::Counter* encode_misses =
      metrics::Registry::Global().counter("streaming.encode_misses");
  metrics::Counter* deviation_hits =
      metrics::Registry::Global().counter("streaming.deviation_hits");
  metrics::Counter* deviation_misses =
      metrics::Registry::Global().counter("streaming.deviation_misses");
  metrics::Counter* merlin_hits =
      metrics::Registry::Global().counter("streaming.merlin_hits");
  metrics::Counter* merlin_misses =
      metrics::Registry::Global().counter("streaming.merlin_misses");
  metrics::Counter* memo_bypass =
      metrics::Registry::Global().counter("streaming.memo_bypass");
};

MemoMetrics& MemoInstruments() {
  static MemoMetrics m;
  return m;
}

// The memo entry stored under `key`, or null on a miss. A null cache (a
// pass without a memo) misses every lookup.
template <typename Map>
const typename Map::mapped_type* FindCached(const Map* cache, int64_t key) {
  if (cache == nullptr) return nullptr;
  const auto it = cache->find(key);
  return it == cache->end() ? nullptr : &it->second;
}

// Stage 3's search region around one kept window: the window padded by
// merlin_padding_windows on each side and clamped to the series, searched
// at lengths merlin_min_length .. max_len, where max_len is at most half
// the region minus one (longer lengths have no non-trivial match) and at
// most merlin_max_length_windows windows.
struct DiscordRegion {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t max_len = 0;

  DiscordRegion(const TriadConfig& config, int64_t window_length, int64_t n,
                int64_t w_start) {
    const int64_t pad = static_cast<int64_t>(std::llround(
        config.merlin_padding_windows * static_cast<double>(window_length)));
    begin = std::max<int64_t>(0, w_start - pad);
    end = std::min(n, w_start + window_length + pad);
    max_len = std::min<int64_t>(
        (end - begin) / 2 - 1,
        static_cast<int64_t>(
            std::llround(config.merlin_max_length_windows *
                         static_cast<double>(window_length))));
  }

  bool Searchable(const TriadConfig& config) const {
    return max_len >= config.merlin_min_length;
  }

  // Exact top discord per length (discord::ExactDiscords), with positions
  // relative to `begin`.
  //
  // Changed-region tracking at region granularity: when the region's global
  // span matches a memo entry, the stream content of the whole region is
  // unchanged since that pass, so the stored result IS this search's result.
  // Any content change misses and re-runs the full sweep (bit-identity
  // forbids partial floating-point reuse across shifted origins; see
  // ARCHITECTURE.md §8). A miss stores its result, evicting the least
  // recently used entry once the memo holds kMerlinEntries.
  Result<discord::MerlinResult> Search(const std::vector<double>& series,
                                       const TriadConfig& config,
                                       DetectMemo* memo,
                                       int64_t global_start) const {
    const int64_t global_begin = global_start + begin;
    const int64_t global_end = global_start + end;
    if (memo != nullptr) {
      for (DetectMemo::MerlinEntry& entry : memo->merlin) {
        if (entry.begin == global_begin && entry.end == global_end) {
          entry.last_used = ++memo->tick;
          MemoInstruments().merlin_hits->Increment();
          return entry.result;
        }
      }
      MemoInstruments().merlin_misses->Increment();
    }
    const std::vector<double> region(series.begin() + begin,
                                     series.begin() + end);
    TRIAD_ASSIGN_OR_RETURN(
        discord::MerlinResult found,
        discord::ExactDiscords(region, config.merlin_min_length, max_len,
                               config.merlin_length_step));
    if (memo != nullptr) {
      if (memo->merlin.size() >= DetectMemo::kMerlinEntries) {
        memo->merlin.erase(std::min_element(
            memo->merlin.begin(), memo->merlin.end(),
            [](const DetectMemo::MerlinEntry& a,
               const DetectMemo::MerlinEntry& b) {
              return a.last_used < b.last_used;
            }));
      }
      memo->merlin.push_back({global_begin, global_end, found, ++memo->tick});
    }
    return found;
  }
};

}  // namespace

uint64_t NextStreamUid() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void DetectMemo::BindStream(uint64_t uid) {
  TRIAD_CHECK_MSG(uid != 0, "stream uid 0 is the unbound sentinel");
  if (stream_uid == 0) {
    stream_uid = uid;
    return;
  }
  TRIAD_CHECK_MSG(stream_uid == uid,
                  "cross-stream memo reuse: memo bound to stream "
                      << stream_uid << " offered to stream " << uid
                      << " (global keys alias across streams)");
}

void DetectMemo::EvictBefore(int64_t global_start) {
  for (auto& per_domain : encodings) {
    for (auto it = per_domain.begin(); it != per_domain.end();) {
      it = it->first < global_start ? per_domain.erase(it) : std::next(it);
    }
  }
  for (auto it = deviations.begin(); it != deviations.end();) {
    it = it->first < global_start ? deviations.erase(it) : std::next(it);
  }
  merlin.erase(std::remove_if(merlin.begin(), merlin.end(),
                              [&](const MerlinEntry& e) {
                                return e.begin < global_start;
                              }),
               merlin.end());
}

bool WindowOverlapsRange(int64_t start, int64_t length, int64_t begin,
                         int64_t end) {
  return start < end && begin < start + length;
}

TriadDetector::TriadDetector(TriadConfig config) : config_(config) {}

Status TriadDetector::Fit(const std::vector<double>& train_series) {
  TRIAD_RETURN_NOT_OK(ValidateConfig(config_));
  if (static_cast<int64_t>(train_series.size()) < 4 * kMinWindowLength) {
    return Status::InvalidArgument("training series too short");
  }
  TRIAD_ASSIGN_OR_RETURN(
      data::Sanitized clean,
      data::SanitizeSeries(train_series, config_.sanitize));
  // From here on the fitted state is replaced; a Fit that fails below
  // leaves the detector unfitted rather than mixing a new window geometry
  // with the previous model and index.
  model_.reset();
  train_report_ = clean.report;
  train_series_ = std::move(clean.series);
  const int64_t n = static_cast<int64_t>(train_series_.size());

  // Degradation ladder, rung 1: trust the period estimate only when the
  // training data actually supports it; otherwise segment on the configured
  // fallback so noisy/aperiodic series degrade instead of crashing.
  const int64_t estimated = config_.use_welch_period_estimator
                                ? signal::EstimatePeriodWelch(train_series_)
                                : signal::EstimatePeriod(train_series_);
  period_confidence_ = signal::PeriodAcfConfidence(train_series_, estimated);
  period_fallback_ = period_confidence_ < config_.min_period_confidence;
  if (period_fallback_) {
    const int64_t fb =
        config_.fallback_period > 0 ? config_.fallback_period : n / 20;
    period_ = std::clamp<int64_t>(fb, 2, std::max<int64_t>(2, n / 3));
  } else {
    period_ = estimated;
  }
  window_length_ = std::max<int64_t>(
      kMinWindowLength,
      static_cast<int64_t>(std::llround(config_.periods_per_window *
                                        static_cast<double>(period_))));
  window_length_ = std::min(window_length_, n / 2);
  stride_ = std::max<int64_t>(1, window_length_ / config_.stride_divisor);

  // Rung 2: a degenerate decomposition (residual with ~no variance, e.g. a
  // pure tone or heavily repaired data) would feed the residual encoder a
  // zero channel; drop the domain and keep the other two instead.
  residual_disabled_ = false;
  if (config_.use_residual) {
    const std::vector<double> residual =
        signal::ResidualComponent(train_series_, period_);
    const double residual_sd = StdDev(residual);
    if (!std::isfinite(residual_sd) ||
        residual_sd < 1e-9 * std::max(1.0, StdDev(train_series_))) {
      config_.use_residual = false;
      residual_disabled_ = true;
    }
  }
  if (config_.EnabledDomains() == 0) {
    return Status::InvalidArgument(
        "no enabled domains remain after degradation");
  }

  const std::vector<std::vector<double>> windows =
      SliceWindows(train_series_, window_length_, stride_);
  if (windows.size() < 2) {
    return Status::InvalidArgument("training series yields too few windows");
  }

  Rng rng(config_.seed);
  model_ = std::make_unique<TriadModel>(config_, &rng);
  TriadTrainer trainer(config_);
  auto stats = trainer.Fit(windows, period_, model_.get(), &rng);
  TRIAD_RETURN_NOT_OK(stats.status());
  train_stats_ = std::move(stats).value();
  // Built after training, so it is not alive while the trainer's graphs
  // set the peak memory.
  train_index_ = discord::NearestWindowIndex(train_series_, window_length_);
  return Status::OK();
}

std::vector<std::vector<float>> TriadDetector::EncodeWindows(
    Domain domain, const std::vector<std::vector<double>>& windows,
    const std::vector<int64_t>& rows) const {
  constexpr int64_t kEncodeBatch = 16;
  const int64_t M = static_cast<int64_t>(rows.size());
  std::vector<std::vector<float>> reps;
  reps.reserve(static_cast<size_t>(M));
  for (int64_t start = 0; start < M; start += kEncodeBatch) {
    const int64_t count = std::min(kEncodeBatch, M - start);
    std::vector<std::vector<double>> chunk;
    chunk.reserve(static_cast<size_t>(count));
    for (int64_t b = start; b < start + count; ++b) {
      const int64_t row = rows[static_cast<size_t>(b)];
      chunk.push_back(windows[static_cast<size_t>(row)]);
    }
    nn::Var x = nn::Constant(BuildDomainBatch(chunk, domain, period_));
    nn::Var r = model_->EncodeNormalized(domain, x);
    const nn::Tensor& value = r.value();
    const int64_t L = value.dim(1);
    for (int64_t b = 0; b < count; ++b) {
      std::vector<float> row(static_cast<size_t>(L));
      std::copy(value.data() + b * L, value.data() + (b + 1) * L, row.begin());
      reps.push_back(std::move(row));
    }
  }
  return reps;
}

Result<DetectionResult> TriadDetector::Detect(
    const std::vector<double>& test_series) const {
  return RunPass(test_series, /*max_events=*/1, /*memo=*/nullptr,
                 /*global_start=*/0);
}

Result<DetectionResult> TriadDetector::Detect(
    const std::vector<double>& test_series, DetectMemo* memo,
    int64_t global_start) const {
  return RunPass(test_series, /*max_events=*/1, memo, global_start);
}

Result<DetectionResult> TriadDetector::DetectEvents(
    const std::vector<double>& test_series, int64_t max_events) const {
  return RunPass(test_series, max_events, /*memo=*/nullptr,
                 /*global_start=*/0);
}

Result<DetectionResult> TriadDetector::RunPass(
    const std::vector<double>& test_series, int64_t max_events,
    DetectMemo* memo, int64_t global_start) const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("Detect called before Fit");
  }
  if (max_events < 1) {
    return Status::InvalidArgument("max_events must be >= 1");
  }
  const int64_t n = static_cast<int64_t>(test_series.size());
  if (n < window_length_) {
    return Status::InvalidArgument("test series shorter than one window");
  }
  // Cooperative deadline checkpoints (common/deadline.h): one per pipeline
  // stage, one per searched region, plus one per discord length inside the
  // search (discord.cc). A pass whose budget ran out fails with
  // DeadlineExceeded at the next checkpoint instead of finishing late —
  // recoverable, like a sanitize rejection.
  TRIAD_RETURN_NOT_OK(CheckPassDeadline());
  TRIAD_ASSIGN_OR_RETURN(
      data::Sanitized clean,
      data::SanitizeSeries(test_series, config_.sanitize));
  const std::vector<double>& series = clean.series;

  DetectionResult result;
  result.sanitize_report = std::move(clean.report);
  result.period_fallback = period_fallback_;
  result.residual_domain_disabled = residual_disabled_;
  result.window_length = window_length_;
  result.stride = stride_;
  result.window_starts = signal::SlidingWindowStarts(n, window_length_, stride_);
  const int64_t M = static_cast<int64_t>(result.window_starts.size());

  // The memo is content-keyed by global stream index, so it is only valid
  // when the buffer passed through the sanitizer untouched; a repaired
  // buffer runs without it (ARCHITECTURE.md §8).
  if (memo != nullptr && !result.sanitize_report.clean()) {
    MemoInstruments().memo_bypass->Increment();
    memo = nullptr;
  }
  if (memo != nullptr) memo->EvictBefore(global_start);

  std::vector<std::vector<double>> windows;
  windows.reserve(static_cast<size_t>(M));
  for (int64_t s : result.window_starts) {
    windows.push_back(signal::ExtractWindow(series, s, window_length_));
  }
  // Global key of window i: stream index of its first sample.
  const auto global_key = [&](int64_t i) {
    return global_start + result.window_starts[static_cast<size_t>(i)];
  };

  // ---- stage 1: encode + tri-window nomination ----
  // The domain encoders run as independent pool tasks (inference only
  // touches read-only model parameters); each similarity matrix then fans
  // its rows out across the pool. Stage timings come from TraceSpans
  // (ARCHITECTURE.md §6); the DetectionResult *_seconds fields are a
  // compatibility view of the same measurements.
  //
  // With a memo, only windows that newly slid into the buffer are encoded:
  // batch rows are independent (core_test's EncodeRowsAreBatchIndependent),
  // so a cached row is bitwise the row this pass would compute. Each domain
  // touches only its own memo slot, so the fan-out stays race-free.
  trace::TraceSpan encode_span("detector.encode");
  const std::vector<Domain> domains = model_->EnabledDomains();
  std::vector<std::vector<std::vector<float>>> reps(
      domains.size());  // [domain][window][L]
  ParallelFor(
      0, static_cast<int64_t>(domains.size()), /*grain=*/1,
      [&](int64_t begin, int64_t end) {
        for (int64_t di = begin; di < end; ++di) {
          const Domain domain = domains[static_cast<size_t>(di)];
          auto* cache = memo == nullptr
                            ? nullptr
                            : &memo->encodings[static_cast<size_t>(domain)];
          auto& out = reps[static_cast<size_t>(di)];
          out.resize(static_cast<size_t>(M));
          std::vector<int64_t> missing;
          for (int64_t i = 0; i < M; ++i) {
            if (const auto* hit = FindCached(cache, global_key(i))) {
              out[static_cast<size_t>(i)] = *hit;
            } else {
              missing.push_back(i);
            }
          }
          std::vector<std::vector<float>> fresh =
              EncodeWindows(domain, windows, missing);
          for (size_t k = 0; k < missing.size(); ++k) {
            auto& row = out[static_cast<size_t>(missing[k])];
            row = std::move(fresh[k]);
            if (cache != nullptr) (*cache)[global_key(missing[k])] = row;
          }
          if (cache != nullptr) {
            MemoInstruments().encode_misses->Increment(missing.size());
            MemoInstruments().encode_hits->Increment(
                static_cast<uint64_t>(M) - missing.size());
          }
        }
      });
  result.encode_seconds = encode_span.Stop();
  TRIAD_RETURN_NOT_OK(CheckPassDeadline());

  // Each domain nominates its `max_events` least-similar windows. The sort
  // is stable, so equal similarities keep index order and the first
  // nominee is ArgMin(sim).
  trace::TraceSpan tri_window_span("detector.tri_window");
  std::set<int64_t> nominees;
  for (size_t di = 0; di < domains.size(); ++di) {
    std::vector<double> sim = MeanPairwiseSimilarity(reps[di]);
    std::vector<int64_t> order(static_cast<size_t>(M));
    std::iota(order.begin(), order.end(), int64_t{0});
    std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      return sim[static_cast<size_t>(a)] < sim[static_cast<size_t>(b)];
    });
    nominees.insert(order.begin(), order.begin() + std::min(max_events, M));
    result.candidate_windows.push_back(order[0]);
    result.domain_similarity.push_back(std::move(sim));
  }
  result.tri_window_seconds = tri_window_span.Stop();

  // ---- stage 2: selection against the training data ----
  // Each nominee's deviation is one scan of the training index; the scans
  // are independent, so they fan out across the pool. Nominees are ranked
  // highest deviation first, lowest window on ties, and up to max_events
  // non-overlapping windows are kept greedily.
  TRIAD_RETURN_NOT_OK(CheckPassDeadline());
  trace::TraceSpan selection_span("detector.selection");
  const std::vector<int64_t> candidates(nominees.begin(), nominees.end());
  auto* deviation_cache = memo == nullptr ? nullptr : &memo->deviations;
  std::vector<double> deviation(candidates.size(), 0.0);
  std::vector<size_t> pending;  // indices into `candidates` to compute
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (const double* hit =
            FindCached(deviation_cache, global_key(candidates[c]))) {
      deviation[c] = *hit;
    } else {
      pending.push_back(c);
    }
  }
  ParallelFor(0, static_cast<int64_t>(pending.size()), /*grain=*/1,
              [&](int64_t begin, int64_t end) {
                for (int64_t k = begin; k < end; ++k) {
                  const size_t c = pending[static_cast<size_t>(k)];
                  deviation[c] = train_index_.NearestDistance(
                      windows[static_cast<size_t>(candidates[c])]);
                }
              });
  if (deviation_cache != nullptr) {
    for (size_t c : pending) {
      (*deviation_cache)[global_key(candidates[c])] = deviation[c];
    }
    MemoInstruments().deviation_misses->Increment(pending.size());
    MemoInstruments().deviation_hits->Increment(candidates.size() -
                                                pending.size());
  }
  std::vector<size_t> ranked(candidates.size());
  std::iota(ranked.begin(), ranked.end(), size_t{0});
  std::stable_sort(ranked.begin(), ranked.end(), [&](size_t a, size_t b) {
    return deviation[a] > deviation[b];
  });
  const auto start_of = [&](size_t c) {
    return result.window_starts[static_cast<size_t>(candidates[c])];
  };
  std::vector<size_t> kept;  // indices into `candidates`
  for (size_t c : ranked) {
    if (std::none_of(kept.begin(), kept.end(), [&](size_t k) {
          return WindowOverlapsRange(start_of(c), window_length_, start_of(k),
                                     start_of(k) + window_length_);
        })) {
      kept.push_back(c);
    }
    if (static_cast<int64_t>(kept.size()) >= max_events) break;
  }
  result.selected_window = candidates[kept.front()];
  result.selection_seconds = selection_span.Stop();

  // ---- stage 3: exact discord search around each kept window ----
  // search_begin/end report the first (most deviant) window's region.
  trace::TraceSpan discord_span("detector.discord");
  std::vector<WindowVote> window_votes;
  for (size_t k = 0; k < kept.size(); ++k) {
    TRIAD_RETURN_NOT_OK(CheckPassDeadline());
    const int64_t w_start = start_of(kept[k]);
    window_votes.push_back({w_start, window_length_, deviation[kept[k]]});
    const DiscordRegion region(config_, window_length_, n, w_start);
    if (k == 0) {
      result.search_begin = region.begin;
      result.search_end = region.end;
    }
    if (!region.Searchable(config_)) continue;
    TRIAD_ASSIGN_OR_RETURN(discord::MerlinResult found,
                           region.Search(series, config_, memo, global_start));
    for (discord::Discord d : found.discords) {
      d.position += region.begin;  // translate to test coordinates
      result.discords.push_back(d);
    }
  }
  result.discord_seconds = discord_span.Stop();

  // ---- stage 4: voting (Eq. 8) + exception rule (Section IV-G) ----
  trace::TraceSpan voting_span("detector.voting");
  VotingResult votes =
      RunVoting(n, window_votes, result.discords, config_.voting);
  result.votes = std::move(votes.votes);
  result.vote_threshold = votes.threshold;
  result.predictions = std::move(votes.predictions);
  result.exception_applied = votes.exception_applied;
  return result;
}

namespace {

constexpr char kCheckpointMagic[4] = {'T', 'R', 'D', 'T'};
// Version 2 added the sanitize options, period-fallback config and the
// graceful-degradation state (ARCHITECTURE.md §5); version-1 checkpoints
// still load with the defaults for those fields. Version 3 wraps the body
// in a CRC32 + length header so torn or bit-flipped checkpoints fail Load
// with DataLoss instead of silently decoding garbage, and Save writes the
// whole file atomically (write-temp + fsync + rename) so a crash mid-save
// can never leave a truncated file behind ModelRegistry warm-start
// (ARCHITECTURE.md §10). v1/v2 checkpoints still load unverified.
constexpr uint32_t kCheckpointVersion = 3;

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

// Bytes between the read position and the end of the stream (0 when the
// stream cannot seek); the read position is left where it was.
uint64_t RemainingBytes(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (here < 0 || end < here) return 0;
  return static_cast<uint64_t>(end - here);
}

void WriteConfig(std::ostream& out, const TriadConfig& c) {
  WritePod(out, c.periods_per_window);
  WritePod(out, c.stride_divisor);
  WritePod(out, c.depth);
  WritePod(out, c.hidden_dim);
  WritePod(out, c.kernel_size);
  WritePod(out, c.alpha);
  WritePod(out, c.temperature);
  WritePod(out, c.batch_size);
  WritePod(out, c.learning_rate);
  WritePod(out, c.epochs);
  WritePod(out, c.validation_fraction);
  WritePod(out, c.seed);
  WritePod(out, static_cast<uint8_t>(c.use_temporal));
  WritePod(out, static_cast<uint8_t>(c.use_frequency));
  WritePod(out, static_cast<uint8_t>(c.use_residual));
  WritePod(out, static_cast<uint8_t>(c.use_intra_loss));
  WritePod(out, static_cast<uint8_t>(c.use_inter_loss));
  // Slot of a per-domain nominee count that no version of the detector
  // read; always 1, kept so the checkpoint layout stays the same.
  WritePod(out, int64_t{1});
  WritePod(out, c.merlin_padding_windows);
  WritePod(out, c.merlin_min_length);
  WritePod(out, c.merlin_max_length_windows);
  WritePod(out, c.merlin_length_step);
  WritePod(out, static_cast<uint8_t>(c.voting.weighting));
  WritePod(out, static_cast<uint8_t>(c.voting.threshold_rule));
  WritePod(out, c.voting.threshold_quantile);
  WritePod(out, static_cast<uint8_t>(c.use_welch_period_estimator));
  // version >= 2
  WritePod(out, c.sanitize.min_length);
  WritePod(out, c.sanitize.max_interpolate_gap);
  WritePod(out, c.sanitize.stuck_run_length);
  WritePod(out, c.sanitize.max_stuck_fraction);
  WritePod(out, c.sanitize.glitch_sigmas);
  WritePod(out, c.sanitize.max_damage_fraction);
  WritePod(out, static_cast<uint8_t>(c.sanitize.repair));
  WritePod(out, c.fallback_period);
  WritePod(out, c.min_period_confidence);
}

bool ReadConfig(std::istream& in, uint32_t version, TriadConfig* c) {
  uint8_t b1, b2, b3, b4, b5;
  int64_t unused_nominee_count = 0;
  const bool ok =
      ReadPod(in, &c->periods_per_window) && ReadPod(in, &c->stride_divisor) &&
      ReadPod(in, &c->depth) && ReadPod(in, &c->hidden_dim) &&
      ReadPod(in, &c->kernel_size) && ReadPod(in, &c->alpha) &&
      ReadPod(in, &c->temperature) && ReadPod(in, &c->batch_size) &&
      ReadPod(in, &c->learning_rate) && ReadPod(in, &c->epochs) &&
      ReadPod(in, &c->validation_fraction) && ReadPod(in, &c->seed) &&
      ReadPod(in, &b1) && ReadPod(in, &b2) && ReadPod(in, &b3) &&
      ReadPod(in, &b4) && ReadPod(in, &b5) &&
      ReadPod(in, &unused_nominee_count) &&
      ReadPod(in, &c->merlin_padding_windows) &&
      ReadPod(in, &c->merlin_min_length) &&
      ReadPod(in, &c->merlin_max_length_windows) &&
      ReadPod(in, &c->merlin_length_step);
  if (!ok) return false;
  c->use_temporal = b1 != 0;
  c->use_frequency = b2 != 0;
  c->use_residual = b3 != 0;
  c->use_intra_loss = b4 != 0;
  c->use_inter_loss = b5 != 0;
  uint8_t weighting, rule, welch;
  if (!ReadPod(in, &weighting) || weighting > 2 || !ReadPod(in, &rule) ||
      rule > 1 || !ReadPod(in, &c->voting.threshold_quantile) ||
      !ReadPod(in, &welch)) {
    return false;
  }
  c->voting.weighting = static_cast<VoteWeighting>(weighting);
  c->voting.threshold_rule = static_cast<ThresholdRule>(rule);
  c->use_welch_period_estimator = welch != 0;
  if (version >= 2) {
    uint8_t repair;
    if (!ReadPod(in, &c->sanitize.min_length) ||
        !ReadPod(in, &c->sanitize.max_interpolate_gap) ||
        !ReadPod(in, &c->sanitize.stuck_run_length) ||
        !ReadPod(in, &c->sanitize.max_stuck_fraction) ||
        !ReadPod(in, &c->sanitize.glitch_sigmas) ||
        !ReadPod(in, &c->sanitize.max_damage_fraction) ||
        !ReadPod(in, &repair) || !ReadPod(in, &c->fallback_period) ||
        !ReadPod(in, &c->min_period_confidence)) {
      return false;
    }
    c->sanitize.repair = repair != 0;
  }
  return true;
}

}  // namespace

Status TriadDetector::Save(const std::string& path) const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("Save called before Fit");
  }
  std::ostringstream body(std::ios::binary);
  WriteConfig(body, config_);
  WritePod(body, period_);
  WritePod(body, window_length_);
  WritePod(body, stride_);
  WritePod(body, period_confidence_);
  WritePod(body, static_cast<uint8_t>(period_fallback_));
  WritePod(body, static_cast<uint8_t>(residual_disabled_));
  WritePod(body, static_cast<uint64_t>(train_series_.size()));
  body.write(reinterpret_cast<const char*>(train_series_.data()),
             static_cast<std::streamsize>(train_series_.size() *
                                          sizeof(double)));
  std::vector<nn::Tensor> weights;
  for (const nn::Var& p : model_->Parameters()) weights.push_back(p.value());
  TRIAD_RETURN_NOT_OK(nn::WriteTensors(body, weights));
  if (!body) return Status::IoError("checkpoint serialization failed");
  return io::WriteChecksummedFile(path, kCheckpointMagic, kCheckpointVersion,
                                  body.str());
}

Result<TriadDetector> TriadDetector::Load(const std::string& path) {
  // Decoding the body is identical across versions; what differs is where
  // the trusted bytes come from. v3+ files are a single checksummed blob —
  // io::ReadChecksummedFile verifies the CRC before a single body byte is
  // decoded, so torn or bit-flipped checkpoints surface as DataLoss (which
  // ModelRegistry treats as quarantine-worthy) instead of misparsing.
  // v1/v2 files stream-decode unverified, as they always have.
  const auto parse_body = [&path](std::istream& in,
                                  uint32_t version) -> Result<TriadDetector> {
    TriadConfig config;
    if (!ReadConfig(in, version, &config)) {
      return Status::InvalidArgument("corrupt checkpoint config");
    }
    TriadDetector detector(config);
    uint64_t train_size = 0;
    if (!ReadPod(in, &detector.period_) ||
        !ReadPod(in, &detector.window_length_) ||
        !ReadPod(in, &detector.stride_)) {
      return Status::InvalidArgument("corrupt checkpoint header");
    }
    if (version >= 2) {
      uint8_t fallback, residual_off;
      if (!ReadPod(in, &detector.period_confidence_) ||
          !ReadPod(in, &fallback) || !ReadPod(in, &residual_off)) {
        return Status::InvalidArgument("corrupt checkpoint header");
      }
      detector.period_fallback_ = fallback != 0;
      detector.residual_disabled_ = residual_off != 0;
    }
    if (!ReadPod(in, &train_size)) {
      return Status::InvalidArgument("corrupt checkpoint header");
    }
    // The header is untrusted even under a valid CRC: check the window
    // geometry Detect relies on, and the sample count against the bytes
    // actually present, before allocating or indexing anything.
    if (train_size > RemainingBytes(in) / sizeof(double)) {
      return Status::InvalidArgument(
          "checkpoint training series exceeds its body");
    }
    if (detector.window_length_ < kMinWindowLength ||
        detector.window_length_ > static_cast<int64_t>(train_size)) {
      return Status::InvalidArgument(
          "checkpoint window length out of range");
    }
    if (detector.stride_ < 1 || detector.stride_ > detector.window_length_) {
      return Status::InvalidArgument(
          "checkpoint stride outside [1, window length]");
    }
    detector.train_series_.resize(static_cast<size_t>(train_size));
    in.read(reinterpret_cast<char*>(detector.train_series_.data()),
            static_cast<std::streamsize>(train_size * sizeof(double)));
    if (!in) return Status::IoError("checkpoint truncated: " + path);
    detector.train_index_ = discord::NearestWindowIndex(
        detector.train_series_, detector.window_length_);

    Rng rng(config.seed);
    detector.model_ = std::make_unique<TriadModel>(config, &rng);
    TRIAD_ASSIGN_OR_RETURN(std::vector<nn::Tensor> weights,
                           nn::ReadTensors(in));
    TRIAD_RETURN_NOT_OK(
        nn::AssignParameters(weights, detector.model_->Parameters()));
    return detector;
  };

  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not a TriAD checkpoint: " + path);
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version) || version < 1) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  if (version <= 2) return parse_body(in, version);
  in.close();
  uint32_t stored_version = 0;
  TRIAD_ASSIGN_OR_RETURN(
      std::string payload,
      io::ReadChecksummedFile(path, kCheckpointMagic, &stored_version));
  if (stored_version > kCheckpointVersion) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  std::istringstream body(payload, std::ios::binary);
  return parse_body(body, stored_version);
}

}  // namespace triad::core
