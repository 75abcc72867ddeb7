#include "common/parallel.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/deadline.h"
#include "common/env.h"
#include "common/metrics.h"

namespace triad {
namespace {

// Set while a thread is executing chunks for a pool; used to detect
// reentrant RunChunks calls so they can fall back to inline execution.
thread_local const ThreadPool* tls_executing_pool = nullptr;

ThreadPool* g_default_override = nullptr;

// Pool telemetry (ARCHITECTURE.md §6), updated at batch granularity so the
// chunk-dispatch hot path stays untouched. `queue_depth` is the chunk count
// of the most recently published batch; `utilization` is that batch's
// chunks-per-lane ratio (>= 1 means every lane had work).
struct PoolMetrics {
  metrics::Counter* batches =
      metrics::Registry::Global().counter("parallel.batches");
  metrics::Counter* inline_batches =
      metrics::Registry::Global().counter("parallel.inline_batches");
  metrics::Counter* chunks =
      metrics::Registry::Global().counter("parallel.chunks");
  metrics::Gauge* queue_depth =
      metrics::Registry::Global().gauge("parallel.queue_depth");
  metrics::Gauge* utilization =
      metrics::Registry::Global().gauge("parallel.utilization");
  metrics::Gauge* lanes = metrics::Registry::Global().gauge("parallel.lanes");
};

PoolMetrics& Instruments() {
  static PoolMetrics m;
  return m;
}

}  // namespace

// One RunChunks invocation. Workers pull chunk indices from `next`; the
// batch is complete when `done` reaches `num_chunks` (skipped chunks count).
struct ThreadPool::Batch {
  const std::function<void(int64_t)>* fn = nullptr;
  int64_t num_chunks = 0;
  std::atomic<int64_t> next{0};
  std::atomic<bool> abort{false};
  // The submitting thread's pass deadline, re-installed on every worker
  // lane for the batch's duration so cooperative checkpoints inside task
  // bodies observe the same budget as the caller (common/deadline.h).
  DeadlinePtr deadline;

  std::mutex mu;
  std::condition_variable done_cv;
  int64_t done = 0;                   // guarded by mu
  std::exception_ptr error;           // first failure, guarded by mu until done
};

struct ThreadPool::Impl {
  std::vector<std::thread> workers;

  std::mutex mu;
  std::condition_variable work_cv;
  // The most recently published batch, which idle workers join. Shared
  // ownership: a worker that grabs the batch pointer right before the
  // batch drains must keep it alive past the caller's return.
  std::shared_ptr<Batch> current;
  uint64_t epoch = 0;  // bumped when a new batch is published
  bool shutdown = false;
};

ThreadPool::ThreadPool(int64_t num_threads)
    : num_threads_(std::max<int64_t>(1, num_threads)), impl_(new Impl) {
  // The calling thread is one lane; spawn the rest.
  for (int64_t i = 1; i < num_threads_; ++i) {
    impl_->workers.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

void ThreadPool::ExecuteBatch(Batch* batch) {
  int64_t executed_or_skipped = 0;
  std::exception_ptr first_error;
  while (true) {
    const int64_t chunk = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= batch->num_chunks) break;
    if (!batch->abort.load(std::memory_order_acquire)) {
      try {
        (*batch->fn)(chunk);
      } catch (...) {
        if (first_error == nullptr) first_error = std::current_exception();
        batch->abort.store(true, std::memory_order_release);
      }
    }
    ++executed_or_skipped;
  }
  if (executed_or_skipped == 0 && first_error == nullptr) return;
  bool complete = false;
  {
    std::lock_guard<std::mutex> lock(batch->mu);
    batch->done += executed_or_skipped;
    if (batch->error == nullptr && first_error != nullptr) {
      batch->error = std::move(first_error);
    }
    complete = batch->done == batch->num_chunks;
  }
  if (complete) batch->done_cv.notify_all();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_epoch = 0;
  while (true) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(impl_->mu);
      impl_->work_cv.wait(lock, [&] {
        return impl_->shutdown ||
               (impl_->current != nullptr && impl_->epoch != seen_epoch);
      });
      if (impl_->shutdown) return;
      batch = impl_->current;
      seen_epoch = impl_->epoch;
    }
    tls_executing_pool = this;
    {
      ScopedPassDeadline deadline(batch->deadline);
      ExecuteBatch(batch.get());
    }
    tls_executing_pool = nullptr;
  }
}

void ThreadPool::RunChunks(int64_t num_chunks,
                           const std::function<void(int64_t)>& fn) {
  if (num_chunks <= 0) return;
  // Inline execution: single-chunk batches, pools without workers, and
  // reentrant calls from inside one of our own tasks (which would otherwise
  // deadlock waiting for lanes that are busy running the outer batch).
  if (num_chunks == 1 || impl_->workers.empty() ||
      tls_executing_pool == this) {
    Instruments().inline_batches->Increment();
    for (int64_t c = 0; c < num_chunks; ++c) fn(c);
    return;
  }

  Instruments().batches->Increment();
  Instruments().chunks->Increment(static_cast<uint64_t>(num_chunks));
  Instruments().queue_depth->Set(static_cast<double>(num_chunks));
  Instruments().utilization->Set(static_cast<double>(num_chunks) /
                                 static_cast<double>(num_threads_));
  Instruments().lanes->Set(static_cast<double>(num_threads_));

  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->num_chunks = num_chunks;
  batch->deadline = CurrentPassDeadline();
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->current = batch;
    ++impl_->epoch;
  }
  impl_->work_cv.notify_all();

  // The calling thread is a lane too.
  const ThreadPool* saved = tls_executing_pool;
  tls_executing_pool = this;
  ExecuteBatch(batch.get());
  tls_executing_pool = saved;

  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->done_cv.wait(lock,
                        [&] { return batch->done == batch->num_chunks; });
  }
  {
    // Another external caller may have published its batch since ours;
    // idle workers must still find that one.
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->current == batch) impl_->current = nullptr;
  }
  // The error leaves the batch before the caller drops it, so the caller
  // alone owns the exception and frees it after handling it. A worker may
  // still hold the batch; had the batch kept a reference, the worker could
  // free the exception while the handler reads it, ordered only by
  // exception_ptr's count inside the uninstrumented runtime, which TSan
  // reports as a race.
  if (batch->error != nullptr) {
    std::rethrow_exception(std::exchange(batch->error, nullptr));
  }
}

ThreadPool* DefaultPool() {
  static ThreadPool* pool = [] {
    const int64_t hw =
        static_cast<int64_t>(std::thread::hardware_concurrency());
    return new ThreadPool(
        GetEnvInt("TRIAD_NUM_THREADS", std::max<int64_t>(1, hw)));
  }();
  return g_default_override != nullptr ? g_default_override : pool;
}

ScopedDefaultPool::ScopedDefaultPool(ThreadPool* pool)
    : previous_(g_default_override) {
  g_default_override = pool;
}

ScopedDefaultPool::~ScopedDefaultPool() { g_default_override = previous_; }

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn,
                 ThreadPool* pool) {
  const int64_t g = ParallelEffectiveGrain(begin, end, grain);
  const int64_t chunks = ParallelChunkCount(begin, end, g);
  if (chunks == 0) return;
  if (pool == nullptr) pool = DefaultPool();
  pool->RunChunks(chunks, [&](int64_t c) {
    const int64_t b = begin + c * g;
    fn(b, std::min(end, b + g));
  });
}

}  // namespace triad
