#ifndef TRIAD_COMMON_PARALLEL_H_
#define TRIAD_COMMON_PARALLEL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace triad {

/// \brief A fixed-size, work-stealing-free thread pool with deterministic
/// work decomposition.
///
/// Design goals, in priority order:
///
///  1. **Determinism.** Work is split into chunks whose boundaries depend
///     only on the problem size and the caller-supplied grain — never on the
///     pool size or on runtime scheduling. A computation built on
///     ParallelFor / ParallelMapReduce therefore produces bit-identical
///     results at 1 thread and at N threads (floating-point reduction order
///     included), which is what makes `TRIAD_NUM_THREADS` a pure performance
///     knob rather than a behaviour knob.
///  2. **Safety.** Exceptions thrown by tasks are captured and the first one
///     is rethrown on the calling thread; the pool remains usable
///     afterwards. Calls issued from inside a pool task run inline
///     (serially), so nested parallel constructs cannot deadlock.
///  3. **Simplicity.** Workers pull chunk indices from an atomic counter;
///     the calling thread participates in execution. Batches from
///     different external threads may overlap: idle workers join the most
///     recently published one, and each caller runs and waits for its own.
///     There is no work stealing and no task futures — every entry point
///     blocks until its batch completes.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` total execution lanes *including the
  /// calling thread* (clamped to >= 1). A pool of size 1 owns no OS threads
  /// and runs every chunk inline on the caller, making serial execution a
  /// degenerate case of the same code path.
  explicit ThreadPool(int64_t num_threads);

  /// Joins all workers. Outstanding RunChunks calls must have returned.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (worker threads + the calling thread).
  int64_t num_threads() const { return num_threads_; }

  /// Executes `fn(chunk)` for every chunk index in [0, num_chunks),
  /// distributing chunks across the pool; the calling thread executes
  /// chunks too. Blocks until every chunk has finished. If any invocation
  /// throws, remaining unstarted chunks are skipped and the first exception
  /// is rethrown on the calling thread once the batch has drained.
  ///
  /// Calls from different external threads may run at the same time; each
  /// waits only for its own batch. Reentrant calls (from inside a task of
  /// this pool) run inline, in chunk order, on the current thread.
  void RunChunks(int64_t num_chunks, const std::function<void(int64_t)>& fn);

 private:
  struct Batch;

  void WorkerLoop();
  static void ExecuteBatch(Batch* batch);

  int64_t num_threads_ = 1;
  struct Impl;
  Impl* impl_ = nullptr;  // pimpl keeps <thread>/<mutex> out of this header
};

/// \brief The process-wide default pool used when call sites pass no pool.
///
/// Lazily constructed on first use with `TRIAD_NUM_THREADS` lanes (default:
/// the hardware concurrency). The pool is intentionally leaked so that it
/// outlives static destructors. Never null.
ThreadPool* DefaultPool();

/// \brief RAII override of DefaultPool() for tests and benches that sweep
/// thread counts (e.g. asserting 1-thread vs 4-thread bit-identity).
///
/// Overrides nest; each scope restores the previous pool on destruction.
/// Install and remove overrides from a single thread only.
class ScopedDefaultPool {
 public:
  explicit ScopedDefaultPool(ThreadPool* pool);
  ~ScopedDefaultPool();

  ScopedDefaultPool(const ScopedDefaultPool&) = delete;
  ScopedDefaultPool& operator=(const ScopedDefaultPool&) = delete;

 private:
  ThreadPool* previous_ = nullptr;
};

/// Effective grain for [begin, end): the caller's grain clamped to
/// [1, end - begin]. The upper clamp costs nothing (a grain beyond the
/// range size is one chunk either way) and keeps the chunk arithmetic —
/// `end - begin + g - 1` and `begin + chunk * g` — overflow-free even for
/// adversarial grains like INT64_MAX, which previously wrapped the chunk
/// count negative and silently skipped the whole range.
inline int64_t ParallelEffectiveGrain(int64_t begin, int64_t end,
                                      int64_t grain) {
  return std::clamp<int64_t>(grain, 1, std::max<int64_t>(1, end - begin));
}

/// Number of fixed-size chunks ParallelFor uses for [begin, end) at the
/// given grain; depends only on the range and grain, never on the pool.
/// Every chunk is non-empty: ceil division over the clamped grain cannot
/// produce a zero-size tail.
inline int64_t ParallelChunkCount(int64_t begin, int64_t end, int64_t grain) {
  if (end <= begin) return 0;
  const int64_t g = ParallelEffectiveGrain(begin, end, grain);
  return (end - begin + g - 1) / g;
}

/// \brief Runs `fn(chunk_begin, chunk_end)` over [begin, end) split into
/// contiguous chunks of `grain` indices (the last chunk may be shorter).
///
/// The chunk decomposition is identical for every pool size, so a body that
/// is deterministic per chunk (e.g. writes only to slots derived from its
/// indices, or accumulates only within its own chunk) yields bit-identical
/// results at any thread count. `pool` defaults to DefaultPool().
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn,
                 ThreadPool* pool = nullptr);

/// \brief Ordered parallel map-reduce over [begin, end).
///
/// `map(chunk_begin, chunk_end) -> T` computes one partial per fixed chunk
/// (ownership never migrates), and `combine(acc, partial) -> T` folds the
/// partials **in ascending chunk order** on the calling thread. The
/// reduction order is therefore independent of the pool size, making
/// non-commutative and floating-point reductions deterministic.
template <typename T, typename MapFn, typename CombineFn>
T ParallelMapReduce(int64_t begin, int64_t end, int64_t grain, T init,
                    MapFn map, CombineFn combine, ThreadPool* pool = nullptr) {
  // Same clamped grain as ParallelFor, so the partial-slot index below
  // agrees with the chunk decomposition.
  const int64_t g = ParallelEffectiveGrain(begin, end, grain);
  const int64_t chunks = ParallelChunkCount(begin, end, g);
  if (chunks == 0) return init;
  std::vector<std::optional<T>> partials(static_cast<size_t>(chunks));
  ParallelFor(
      begin, end, g,
      [&](int64_t b, int64_t e) {
        partials[static_cast<size_t>((b - begin) / g)] = map(b, e);
      },
      pool);
  T acc = std::move(init);
  for (auto& partial : partials) {
    acc = combine(std::move(acc), std::move(*partial));
  }
  return acc;
}

}  // namespace triad

#endif  // TRIAD_COMMON_PARALLEL_H_
