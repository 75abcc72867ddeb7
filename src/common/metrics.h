#ifndef TRIAD_COMMON_METRICS_H_
#define TRIAD_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace triad::metrics {

/// \brief Process-global, thread-safe runtime metrics
/// (see ARCHITECTURE.md §6).
///
/// Two instrument kinds, both lock-free on the record path and both
/// accumulating: updates from any number of threads or fleets add up, and
/// none is lost.
///
///   * **Counter**   — monotonically increasing uint64 (events, rows, bytes).
///   * **Histogram** — fixed log-spaced buckets for latency-shaped values.
///
/// A level (queue depth, tenant count, last loss, pool lanes) is not an
/// instrument: it is read from the object that owns it (FleetStats,
/// TrainStats, DefaultPool()), exact and per owner.
///
/// Instruments live in the global Registry, keyed by a dot-separated
/// lowercase name (`<module>.<noun>`, e.g. `stomp.rows`,
/// `streaming.failed_passes`). Call sites cache the instrument pointer in a
/// function-local static, so steady state is one branch + one relaxed
/// atomic per event.
///
/// The whole layer is gated by the `TRIAD_METRICS` environment variable
/// (`off` / `0` / `false` / `no` disable it; anything else — including
/// unset — enables it). When disabled every record call is a single
/// predictable branch and nothing is ever written: the registry stays
/// empty-valued, and trace spans (common/trace.h) still measure but record
/// nothing.
/// Observability never feeds back into computation — results are
/// bit-identical with metrics on and off (enforced by
/// tests/detector_golden_test.cc).

/// True when metric/span recording is active. Reads the environment once;
/// ScopedEnable overrides it afterwards.
bool Enabled();

/// \brief RAII enable/disable override for tests and benches (same
/// discipline as simd::ScopedForceLevel: overrides nest, install and
/// remove from a single thread only).
class ScopedEnable {
 public:
  explicit ScopedEnable(bool enabled);
  ~ScopedEnable();

  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  int previous_;  // -1 = no override was active
};

/// \brief Monotonic event counter. Concurrent Increment calls from pool
/// workers are exact (relaxed atomic add; no lost updates).
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    if (!Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Histogram over fixed log-spaced buckets.
///
/// Bucket i counts observations with value <= BucketUpperBound(i); the
/// last bucket is the +inf overflow. Bounds start at 1 microsecond-scale
/// (1e-6) and double per bucket, covering ~1e-6 .. ~1e3 — sized for
/// seconds-valued latencies, usable for any positive magnitude. Negative,
/// NaN, and zero observations land in bucket 0.
class Histogram {
 public:
  static constexpr int kNumBuckets = 32;

  /// Upper bound of bucket i (1e-6 * 2^i); +inf for the last bucket.
  static double BucketUpperBound(int i);

  void Observe(double v);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Sum of observed values (relaxed CAS loop; exact up to fp addition
  /// order, which intentionally does not feed back into any computation).
  double sum() const;
  uint64_t bucket_count(int i) const;
  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // bit pattern of the double sum
};

/// \brief The process-global instrument registry.
///
/// Lookup (counter/histogram) takes a mutex and allocates only the
/// first time a name is seen; returned pointers are stable for the process
/// lifetime. Call sites cache the pointer, except trace::TraceSpan, which
/// looks its histogram up by name once per recorded span. Exporters
/// snapshot under the same mutex, so names appear atomically; values are
/// relaxed reads.
class Registry {
 public:
  static Registry& Global();

  Counter* counter(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// One instrument per line: `counter <name> <value>` / `histogram <name>
  /// count <n> sum <s>`, sorted by name.
  std::string ExportText() const;

  /// JSON fragment `"counters": {...}, "histograms": [...]` — object
  /// *members* (no surrounding braces), composed into full documents by
  /// trace::WriteObservabilityJson and the bench harness.
  std::string ExportJsonMembers() const;

  /// Zeroes every registered instrument (tests and the bench JSON mode;
  /// instruments stay registered and pointers stay valid).
  void ResetAll();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry();
  ~Registry();  // never runs: the global registry is intentionally leaked

  struct Impl;
  Impl* impl_;
};

/// Escapes `s` for a JSON string literal: quotes and backslashes get a
/// backslash, control characters become `\u0020`. Shared by every JSON
/// exporter.
std::string JsonEscape(std::string_view s);

/// Writes `v` as a JSON number with 17 significant digits. JSON has no
/// NaN/Inf literals, so a non-finite value is written as 0 (metric values
/// are advisory, and a parse failure would cost the whole document).
void AppendJsonNumber(std::ostream& os, double v);

}  // namespace triad::metrics

#endif  // TRIAD_COMMON_METRICS_H_
