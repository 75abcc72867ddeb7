#ifndef TRIAD_COMMON_METRICS_H_
#define TRIAD_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace triad::metrics {

/// \brief Process-global, thread-safe runtime metrics
/// (see ARCHITECTURE.md §6).
///
/// Three instrument kinds, all lock-free on the record path:
///
///   * **Counter**   — monotonically increasing uint64 (events, rows, bytes).
///   * **Gauge**     — a last-write-wins double (queue depth, buffer fill).
///   * **Histogram** — fixed log-spaced buckets for latency-shaped values.
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
/// empty-valued and the trace ring buffer (common/trace.h) stays empty.
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

/// \brief Last-write-wins double gauge (stored as bits so the store is a
/// single atomic word write).
class Gauge {
 public:
  void Set(double v);
  /// Atomically adds `delta` (CAS loop) — for level-style gauges maintained
  /// by concurrent increments/decrements (e.g. serve.queue_depth, where
  /// last-write-wins Set from racing ingest threads would lose updates).
  /// Exact for integer-valued deltas within the double mantissa.
  void Add(double delta);
  double value() const;
  void Reset();

 private:
  std::atomic<uint64_t> bits_{0};  // bit pattern of 0.0
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
/// Lookup (counter/gauge/histogram) takes a mutex and is meant for
/// call-site initialization, not per-event use; returned pointers are
/// stable for the process lifetime. Exporters snapshot under the same
/// mutex, so names appear atomically; values are relaxed reads.
class Registry {
 public:
  static Registry& Global();

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// One instrument per line: `counter <name> <value>` / `gauge <name>
  /// <value>` / `histogram <name> count <n> sum <s>`, sorted by name.
  std::string ExportText() const;

  /// JSON fragment `"counters": {...}, "gauges": {...}, "histograms":
  /// [...]` — object *members* (no surrounding braces), composed into full
  /// documents by trace::WriteObservabilityJson and the bench harness.
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

}  // namespace triad::metrics

#endif  // TRIAD_COMMON_METRICS_H_
