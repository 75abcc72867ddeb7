#ifndef TRIAD_COMMON_DEADLINE_H_
#define TRIAD_COMMON_DEADLINE_H_

#include <chrono>

#include "common/status.h"

namespace triad {

/// \file Cooperative pass deadlines (ARCHITECTURE.md §10).
///
/// A Detect pass is a long, loop-shaped computation; nothing in it blocks
/// forever, but a pathological buffer (or an injected fault) can make one
/// pass eat a whole drain's budget. The deadline layer bounds that
/// cooperatively: the caller installs a PassDeadline for the duration of
/// the pass, the pass's loops call CheckPassDeadline() at their natural
/// checkpoints (stage boundaries, once per discord length), and a
/// checkpoint reached at or past the deadline surfaces as
/// Status::DeadlineExceeded — an ordinary recoverable error, handled
/// exactly like a sanitize rejection (the span becomes a timeline gap; the
/// QoS ladder sees a failed pass).
///
/// A deadline is a steady_clock instant and nothing else: steady_clock is
/// monotonic, so once a checkpoint sees the deadline passed, every later
/// checkpoint does too. Nothing stops a pass between checkpoints.
///
/// Propagation: the thread-local current deadline is captured by
/// ThreadPool::RunChunks when a batch is published and re-installed on
/// every worker lane for the batch's duration, so checkpoints inside
/// ParallelFor/ParallelMapReduce bodies observe the submitting pass's
/// budget (common/parallel.cc).
using PassDeadline = std::chrono::steady_clock::time_point;

/// The "no deadline" value: a checkpoint never reaches it.
inline constexpr PassDeadline kNoPassDeadline = PassDeadline::max();

/// The deadline governing the calling thread's current pass, or
/// kNoPassDeadline.
PassDeadline CurrentPassDeadline();

/// OK when no deadline is installed or the installed one lies in the
/// future; Status::DeadlineExceeded once `now >= deadline`. The
/// cooperative checkpoint — cheap enough for per-stage / per-length call
/// sites (one thread-local read, plus one clock read under a deadline).
Status CheckPassDeadline();

/// \brief RAII installation of a pass deadline on the calling thread.
/// Scopes nest; each restores the previous deadline on destruction.
/// Installing kNoPassDeadline masks any outer deadline for the scope.
class ScopedPassDeadline {
 public:
  explicit ScopedPassDeadline(PassDeadline deadline);
  ~ScopedPassDeadline();

  ScopedPassDeadline(const ScopedPassDeadline&) = delete;
  ScopedPassDeadline& operator=(const ScopedPassDeadline&) = delete;

 private:
  PassDeadline previous_;
};

}  // namespace triad

#endif  // TRIAD_COMMON_DEADLINE_H_
