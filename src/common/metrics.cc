#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/env.h"

namespace triad::metrics {
namespace {

bool EnabledFromEnv() {
  const std::string v = GetEnvString("TRIAD_METRICS", "on");
  return !(v == "off" || v == "0" || v == "false" || v == "no");
}

// -1 = follow the environment; 0/1 = ScopedEnable override.
std::atomic<int> g_override{-1};

// Doubles are stored in atomics as their bit patterns; bit_cast keeps the
// round trip exact (including NaN payloads, which the exporters then
// sanitize for JSON).
uint64_t ToBits(double v) { return std::bit_cast<uint64_t>(v); }
double FromBits(uint64_t b) { return std::bit_cast<double>(b); }

// Escapes a metric name for inclusion in a JSON string literal. Names are
// ASCII identifiers by convention; this keeps the exporter safe anyway.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += "\\u0020";  // control chars have no business in metric names
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// JSON has no NaN/Inf literals; a non-finite value exports as 0 (metric
// values are advisory, and a parse failure would cost the whole document).
void AppendJsonNumber(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << v;
  os << tmp.str();
}

}  // namespace

bool Enabled() {
  static const bool from_env = EnabledFromEnv();
  const int o = g_override.load(std::memory_order_relaxed);
  return o < 0 ? from_env : o != 0;
}

ScopedEnable::ScopedEnable(bool enabled)
    : previous_(g_override.load(std::memory_order_relaxed)) {
  g_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

ScopedEnable::~ScopedEnable() {
  g_override.store(previous_, std::memory_order_relaxed);
}

void Gauge::Set(double v) {
  if (!Enabled()) return;
  bits_.store(ToBits(v), std::memory_order_relaxed);
}

void Gauge::Add(double delta) {
  if (!Enabled()) return;
  uint64_t old = bits_.load(std::memory_order_relaxed);
  while (!bits_.compare_exchange_weak(old, ToBits(FromBits(old) + delta),
                                      std::memory_order_relaxed)) {
  }
}

double Gauge::value() const {
  return FromBits(bits_.load(std::memory_order_relaxed));
}

void Gauge::Reset() { bits_.store(ToBits(0.0), std::memory_order_relaxed); }

double Histogram::BucketUpperBound(int i) {
  if (i >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return 1e-6 * static_cast<double>(uint64_t{1} << i);
}

void Histogram::Observe(double v) {
  if (!Enabled()) return;
  int bucket = 0;
  while (bucket < kNumBuckets - 1 && v > BucketUpperBound(bucket)) ++bucket;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(v)) {
    uint64_t old = sum_bits_.load(std::memory_order_relaxed);
    while (!sum_bits_.compare_exchange_weak(old, ToBits(FromBits(old) + v),
                                            std::memory_order_relaxed)) {
    }
  }
}

double Histogram::sum() const {
  return FromBits(sum_bits_.load(std::memory_order_relaxed));
}

uint64_t Histogram::bucket_count(int i) const {
  if (i < 0 || i >= kNumBuckets) return 0;
  return buckets_[i].load(std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(ToBits(0.0), std::memory_order_relaxed);
}

// std::map keeps exporter output sorted; unique_ptr keeps instrument
// addresses stable across rehash-free inserts.
struct Registry::Impl {
  mutable std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry::Registry() : impl_(new Impl) {}
Registry::~Registry() { delete impl_; }

Registry& Registry::Global() {
  // Leaked so instruments outlive static destructors in worker threads.
  static Registry* registry = new Registry;
  return *registry;
}

Counter* Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto& slot = impl_->counters[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto& slot = impl_->gauges[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto& slot = impl_->histograms[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::string Registry::ExportText() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::ostringstream os;
  os.precision(17);
  for (const auto& [name, c] : impl_->counters) {
    os << "counter " << name << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : impl_->gauges) {
    os << "gauge " << name << " " << g->value() << "\n";
  }
  for (const auto& [name, h] : impl_->histograms) {
    os << "histogram " << name << " count " << h->count() << " sum "
       << h->sum() << "\n";
  }
  return os.str();
}

std::string Registry::ExportJsonMembers() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::ostringstream os;
  os << "\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : impl_->counters) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << JsonEscape(name) << "\": " << c->value();
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : impl_->gauges) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << JsonEscape(name) << "\": ";
    AppendJsonNumber(os, g->value());
  }
  os << "}, \"histograms\": [";
  first = true;
  for (const auto& [name, h] : impl_->histograms) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": \"" << JsonEscape(name) << "\", \"count\": "
       << h->count() << ", \"sum\": ";
    AppendJsonNumber(os, h->sum());
    os << ", \"buckets\": [";
    bool first_bucket = true;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      const uint64_t n = h->bucket_count(i);
      if (n == 0) continue;  // sparse export: empty buckets add no signal
      if (!first_bucket) os << ", ";
      first_bucket = false;
      os << "{\"le\": ";
      const double bound = Histogram::BucketUpperBound(i);
      if (std::isfinite(bound)) {
        AppendJsonNumber(os, bound);
      } else {
        os << "\"+inf\"";
      }
      os << ", \"count\": " << n << "}";
    }
    os << "]}";
  }
  os << "]";
  return os.str();
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, c] : impl_->counters) c->Reset();
  for (auto& [name, g] : impl_->gauges) g->Reset();
  for (auto& [name, h] : impl_->histograms) h->Reset();
}

}  // namespace triad::metrics
