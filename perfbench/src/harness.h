// Shared machinery of the end-to-end benchmark: the command line, the
// benchmark's own spans, registry counter snapshots, the host-speed
// reference kernel, percentile helpers and the JSON record every workload
// fills. Nothing here calls into the program except the metrics registry
// read in ReadCounters(); workloads time the program from outside.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int lanes = 0;          ///< pool size, and threads the speed index samples
  std::string state_dir;  ///< where durable fleets keep their files
  std::string trace_path; ///< where the span log is written (trace runs)
};

/// The fixed-work workloads (fleet_saturated's rounds, archive_batch's
/// datasets) start no new unit of work once their measured phase has run
/// this many times --seconds, so a much slower program still reports its
/// figures, over the work it finished, before run.py's timeout.
constexpr double kBudgetFactor = 2.0;

/// Seconds on the steady clock since the process started.
double Now();

/// Process CPU time (user + system, all threads) in seconds.
double ProcessCpuSeconds();

/// Peak resident set of this process in MB.
double PeakRssMb();

/// Nearest-rank percentile, q in [0, 1]. Empty input gives 0.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// The highest percentile with at least ten samples beyond it, capped at
/// p99: p99 from 1,000 samples up, lower below (the maximum under 11).
double TailQuantile(size_t n);
double Tail(const std::vector<double>& values);

// ---- deterministic input generation (independent of the program) ----

/// SplitMix64-seeded xorshift generator with Box-Muller normals.
class InputRng {
 public:
  explicit InputRng(uint64_t seed);
  uint64_t Next();
  double Uniform();                  ///< [0, 1)
  int64_t UniformInt(int64_t lo, int64_t hi);  ///< inclusive
  double Normal();

 private:
  uint64_t state_;
};

/// Mixes a workload seed with a stream index into an independent seed.
uint64_t MixSeed(uint64_t seed, uint64_t index);

// ---- the benchmark's own spans ----

/// In-memory span log. Spans are recorded only on the thread that opened
/// the log (the benchmark's driver thread) and only when tracing is on;
/// they are written out once, at exit.
class SpanLog {
 public:
  static SpanLog& Get();

  void Enable(bool on, int run_id);

  int32_t Open(const char* name);
  void Close(int32_t id);
  /// A closed child of the currently open span with explicit bounds (stage
  /// splits read from DetectionResult).
  void AddClosed(const char* name, double start, double end);

  struct Stat {
    int64_t count = 0;
    double total = 0.0;
    double self = 0.0;          ///< total minus the time children cover
    double unattributed = 0.0;  ///< self time of spans whose children
                                ///< cover less than 95% of them
  };
  std::map<std::string, Stat> Summarize() const;
  /// Share of the busy time of the `phase.measure` span (its duration minus
  /// its `bench.idle` children) that its other direct children cover; 0
  /// when tracing is off.
  double BusyCoverage() const;

  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int32_t parent;
  };
  bool enabled_ = false;
  int run_id_ = 0;
  int32_t current_ = -1;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(SpanLog::Get().Open(name)) {}
  ~ScopedSpan() { SpanLog::Get().Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t id_;
};

// ---- registry counters ----

using Counters = std::map<std::string, uint64_t>;
/// Every registry counter, read from the program's text export.
Counters ReadCounters();
/// after - before, keeping every name present in `after`.
Counters Delta(const Counters& after, const Counters& before);
/// hits / (hits + misses) for `<prefix>_hits` / `<prefix>_misses`; 0 when
/// neither moved.
double HitRatio(const Counters& c, const std::string& prefix);
uint64_t Count(const Counters& c, const std::string& name);

// ---- host-speed index ----

/// A frozen reference kernel (naive z-normalised distance rows plus a small
/// float GEMM) timed in short samples through a measured phase, on as many
/// threads as the workload has lanes. Its median sample time against the
/// fixed reference time gives the run's speed index.
class SpeedIndex {
 public:
  explicit SpeedIndex(int lanes) : lanes_(lanes) {}
  /// Runs `per_lane` samples on each lane concurrently.
  void Sample(int per_lane = 6);
  size_t samples() const { return samples_us_.size(); }
  double median_us() const;
  /// reference_us / median_us: above 1 the host ran faster than the
  /// reference, below 1 slower.
  double index() const;

 private:
  int lanes_;
  std::vector<double> samples_us_;
};

/// Median duration of one reference-kernel sample on the reference host,
/// in microseconds.
extern const double kReferenceSampleUs;

// ---- the record a workload fills ----

struct Metric {
  std::string name;
  double value = 0.0;   ///< as reported (corrected when `timing`)
  double raw = 0.0;     ///< as measured
  std::string unit;
  int timing = 0;       ///< 0 not a timing, 1 a duration, -1 a rate
};

struct Report {
  std::string workload;
  uint64_t seed = 0;
  int lanes = 1;
  bool trace = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> mismatches;  ///< correctness failures
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::map<std::string, Counters> counters;  ///< per phase
  std::map<std::string, std::string> notes;  ///< sample counts, quantiles
  double speed_index = 1.0;
  double speed_median_us = 0.0;
  size_t speed_samples = 0;

  void Mismatch(const std::string& what) { mismatches.push_back(what); }
  void E2E(const std::string& name, double raw, const std::string& unit,
           int timing);
  void Layer(const std::string& name, double value, const std::string& unit);
  /// The end-to-end metrics every workload reports (and the verdict tail,
  /// per layer), from its set-up times, the CPU and busy wall seconds of its
  /// measured operations, the points they scored and one verdict latency
  /// per input.
  void AddEndToEnd(const std::vector<double>& setup_s, double cpu_s,
                   double points, double busy_s,
                   const std::vector<double>& verdict_ms);
  /// Records the run's speed index and applies it to every timing metric.
  void CorrectForSpeed(const SpeedIndex& speed);
  std::string ToJson() const;
};

// ---- workloads ----

void RunFleetPaced(const Args& args, Report* report);
void RunFleetSaturated(const Args& args, Report* report);
void RunArchiveBatch(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
