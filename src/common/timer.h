#ifndef TRIAD_COMMON_TIMER_H_
#define TRIAD_COMMON_TIMER_H_

#include <chrono>

namespace triad {

/// \brief Monotonic wall-clock stopwatch used by the benchmark harnesses to
/// report stage timings (e.g. Table IV inference time).
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace triad

#endif  // TRIAD_COMMON_TIMER_H_
