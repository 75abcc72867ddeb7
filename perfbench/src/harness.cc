#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <thread>

#include "common/metrics.h"

namespace perfbench {

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double TailQuantile(size_t n) {
  if (n <= 10) return 1.0;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

double Tail(const std::vector<double>& values) {
  return Percentile(values, TailQuantile(values.size()));
}

InputRng::InputRng(uint64_t seed) : state_(seed ^ 0x9e3779b97f4a7c15ULL) {}

uint64_t InputRng::Next() {
  // SplitMix64: a fixed, self-contained generator, so a change to the
  // program's own RNG can never change the benchmark's inputs.
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputRng::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

int64_t InputRng::UniformInt(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

double InputRng::Normal() {
  const double u1 = std::max(Uniform(), 1e-300);
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

uint64_t MixSeed(uint64_t seed, uint64_t index) {
  InputRng rng(seed * 0x100000001b3ULL + index);
  return rng.Next();
}

// ---- spans ----

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

void SpanLog::Enable(bool on, int run_id) {
  enabled_ = on;
  run_id_ = run_id;
  if (on) spans_.reserve(1 << 16);
}

int32_t SpanLog::Open(const char* name) {
  if (!enabled_) return -1;
  spans_.push_back({name, Now(), 0.0, current_});
  current_ = static_cast<int32_t>(spans_.size() - 1);
  return current_;
}

void SpanLog::Close(int32_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = Now();
  current_ = spans_[static_cast<size_t>(id)].parent;
}

void SpanLog::AddClosed(const char* name, double start, double end) {
  if (!enabled_) return;
  spans_.push_back({name, start, end, current_});
}

std::map<std::string, SpanLog::Stat> SpanLog::Summarize() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, Stat> stats;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double duration = s.end - s.start;
    Stat& stat = stats[s.name];
    ++stat.count;
    stat.total += duration;
    const double self = std::max(0.0, duration - covered[i]);
    stat.self += self;
    if (covered[i] > 0.0 && covered[i] < 0.95 * duration) {
      stat.unattributed += self;
    }
  }
  return stats;
}

double SpanLog::BusyCoverage() const {
  double phase = 0.0, idle = 0.0, covered = 0.0;
  for (const Span& s : spans_) {
    const double duration = s.end - s.start;
    if (std::string_view(s.name) == "phase.measure") phase += duration;
    if (s.parent < 0 ||
        std::string_view(spans_[static_cast<size_t>(s.parent)].name) !=
            "phase.measure") {
      continue;
    }
    (std::string_view(s.name) == "bench.idle" ? idle : covered) += duration;
  }
  return phase > idle ? covered / (phase - idle) : 0.0;
}

bool SpanLog::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %d, \"run\": %d}\n",
                 i, s.name, s.start, s.end, s.parent, run_id_);
  }
  return std::fclose(f) == 0;
}

// ---- counters ----

Counters ReadCounters() {
  Counters out;
  std::istringstream text(triad::metrics::Registry::Global().ExportText());
  std::string kind, name;
  while (text >> kind >> name) {
    std::string rest;
    std::getline(text, rest);
    if (kind == "counter") out[name] = std::stoull(rest);
  }
  return out;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0 : it->second);
  }
  return out;
}

uint64_t Count(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

double HitRatio(const Counters& c, const std::string& prefix) {
  const double hits = static_cast<double>(Count(c, prefix + "_hits"));
  const double misses = static_cast<double>(Count(c, prefix + "_misses"));
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

// ---- host-speed index ----

// Calibrated once on the reference host (4 vCPU x86-64 with AVX2) and then
// frozen: changing it rescales every corrected timing.
const double kReferenceSampleUs = 64.0;

namespace {

// The reference work. Frozen: it must never call into the program, so a
// change to the program cannot move the index.
double ReferenceKernel(uint64_t salt) {
  constexpr int kSeries = 416;
  constexpr int kM = 32;
  constexpr int kRows = 2;
  constexpr int kDim = 24;
  static const std::vector<double> series = [] {
    std::vector<double> x(kSeries);
    InputRng rng(12345);
    for (int i = 0; i < kSeries; ++i) {
      x[i] = std::sin(0.19 * i) + 0.1 * rng.Normal();
    }
    return x;
  }();
  const auto stats = [&](int at, double* mean, double* sd) {
    double s = 0.0, s2 = 0.0;
    for (int k = 0; k < kM; ++k) {
      s += series[at + k];
      s2 += series[at + k] * series[at + k];
    }
    *mean = s / kM;
    *sd = std::sqrt(std::max(s2 / kM - *mean * *mean, 1e-12));
  };
  double acc = 0.0;
  for (int r = 0; r < kRows; ++r) {
    const int i = static_cast<int>((salt * 37 + r * 101) % (kSeries - kM));
    double mi = 0.0, si = 1.0;
    stats(i, &mi, &si);
    double best = 1e300;
    for (int j = 0; j + kM <= kSeries; ++j) {
      double mj = 0.0, sj = 1.0;
      stats(j, &mj, &sj);
      double d = 0.0;
      for (int k = 0; k < kM; ++k) {
        const double diff =
            (series[i + k] - mi) / si - (series[j + k] - mj) / sj;
        d += diff * diff;
      }
      if (j != i) best = std::min(best, d);
    }
    acc += std::sqrt(best);
  }
  float a[kDim][kDim], b[kDim][kDim], c[kDim][kDim] = {};
  for (int i = 0; i < kDim; ++i) {
    for (int j = 0; j < kDim; ++j) {
      a[i][j] = static_cast<float>((i * 7 + j * 3 + salt) % 17) * 0.0625f;
      b[i][j] = static_cast<float>((i * 5 + j * 11) % 13) * 0.125f;
    }
  }
  for (int i = 0; i < kDim; ++i) {
    for (int k = 0; k < kDim; ++k) {
      for (int j = 0; j < kDim; ++j) c[i][j] += a[i][k] * b[k][j];
    }
  }
  return acc + c[salt % kDim][(salt / kDim) % kDim];
}

volatile double g_reference_sink = 0.0;

void SampleLane(int count, uint64_t salt, std::vector<double>* out) {
  for (int s = 0; s < count; ++s) {
    const auto start = std::chrono::steady_clock::now();
    const double v = ReferenceKernel(salt + static_cast<uint64_t>(s));
    const auto end = std::chrono::steady_clock::now();
    g_reference_sink = g_reference_sink + v;
    out->push_back(std::chrono::duration<double, std::micro>(end - start)
                       .count());
  }
}

}  // namespace

void SpeedIndex::Sample(int per_lane) {
  std::vector<std::vector<double>> lanes(static_cast<size_t>(lanes_));
  std::vector<std::thread> helpers;
  const uint64_t salt = samples_us_.size();
  for (int lane = 1; lane < lanes_; ++lane) {
    helpers.emplace_back(SampleLane, per_lane, salt + 1000 * lane,
                         &lanes[static_cast<size_t>(lane)]);
  }
  SampleLane(per_lane, salt, &lanes[0]);
  for (std::thread& t : helpers) t.join();
  for (const auto& lane : lanes) {
    samples_us_.insert(samples_us_.end(), lane.begin(), lane.end());
  }
}

double SpeedIndex::median_us() const { return Median(samples_us_); }

double SpeedIndex::index() const {
  const double median = median_us();
  return median > 0.0 ? kReferenceSampleUs / median : 1.0;
}

// ---- report ----

void Report::E2E(const std::string& name, double raw, const std::string& unit,
                 int timing) {
  end_to_end.push_back({name, raw, raw, unit, timing});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  per_layer.push_back({name, value, value, unit, 0});
}

void Report::AddEndToEnd(const std::vector<double>& setup_s, double cpu_s,
                         double points, double busy_s,
                         const std::vector<double>& verdict_ms) {
  E2E("setup_s", Median(setup_s), "s", 1);
  E2E("peak_rss_mb", PeakRssMb(), "MB", 0);
  E2E("cpu_ms_per_kpoint", cpu_s * 1e3 / (points / 1e3), "ms", 1);
  E2E("points_per_s", points / busy_s, "points/s", -1);
  E2E("verdict_p50_ms", Median(verdict_ms), "ms", 1);
  // The tail is reported per layer, unbounded: on the open loop it swung
  // by a third between runs whenever other load shared the host.
  Layer("verdict_tail_ms", Tail(verdict_ms), "ms");
  notes["verdict_samples"] = std::to_string(verdict_ms.size());
  notes["verdict_tail_quantile"] = std::to_string(TailQuantile(verdict_ms.size()));
  Layer("bench.phase_coverage", SpanLog::Get().BusyCoverage(), "ratio");
}

void Report::CorrectForSpeed(const SpeedIndex& speed) {
  speed_index = speed.index();
  speed_median_us = speed.median_us();
  speed_samples = speed.samples();
  for (Metric& m : end_to_end) {
    if (m.timing > 0) m.value = m.raw * speed_index;
    if (m.timing < 0) m.value = m.raw / speed_index;
  }
}

std::string Report::ToJson() const {
  std::ostringstream out;
  const auto metrics = [&](const std::vector<Metric>& list) {
    out << "{";
    for (size_t i = 0; i < list.size(); ++i) {
      const Metric& m = list[i];
      out << (i ? ", " : "") << JsonString(m.name) << ": {\"value\": "
          << JsonNumber(m.value) << ", \"raw\": " << JsonNumber(m.raw)
          << ", \"unit\": " << JsonString(m.unit)
          << ", \"timing\": " << m.timing << "}";
    }
    out << "}";
  };
  out << "{\"workload\": " << JsonString(workload) << ", \"seed\": " << seed
      << ", \"lanes\": " << lanes << ", \"trace\": " << (trace ? 1 : 0)
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"mismatches\": [";
  for (size_t i = 0; i < mismatches.size(); ++i) {
    out << (i ? ", " : "") << JsonString(mismatches[i]);
  }
  out << "], \"speed\": {\"index\": " << JsonNumber(speed_index)
      << ", \"median_us\": " << JsonNumber(speed_median_us)
      << ", \"reference_us\": " << JsonNumber(kReferenceSampleUs)
      << ", \"samples\": " << speed_samples << "}, \"end_to_end\": ";
  metrics(end_to_end);
  out << ", \"per_layer\": ";
  metrics(per_layer);
  out << ", \"counters\": {";
  size_t p = 0;
  for (const auto& [phase, counters] : counters) {
    out << (p++ ? ", " : "") << JsonString(phase) << ": {";
    size_t i = 0;
    for (const auto& [name, value] : counters) {
      out << (i++ ? ", " : "") << JsonString(name) << ": " << value;
    }
    out << "}";
  }
  out << "}, \"notes\": {";
  size_t n = 0;
  for (const auto& [key, value] : notes) {
    out << (n++ ? ", " : "") << JsonString(key) << ": " << JsonString(value);
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
