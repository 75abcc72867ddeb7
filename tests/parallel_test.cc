#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/detector.h"
#include "discord/discord.h"
#include "discord/stomp.h"

namespace triad {
namespace {

constexpr double kPi = 3.14159265358979323846;

// ---------- pool lifecycle ----------

TEST(ThreadPoolTest, ConstructsAndDestructsAcrossSizes) {
  for (int64_t size : {1, 2, 4, 8}) {
    ThreadPool pool(size);
    EXPECT_EQ(pool.num_threads(), size);
  }
}

TEST(ThreadPoolTest, SizeIsClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
}

TEST(ThreadPoolTest, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kChunks = 1000;
  std::vector<std::atomic<int>> hits(kChunks);
  pool.RunChunks(kChunks, [&](int64_t c) { hits[static_cast<size_t>(c)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  ThreadPool pool(3);
  int64_t total = 0;
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.RunChunks(7, [&](int64_t c) { sum += c; });
    total += sum.load();
  }
  EXPECT_EQ(total, 50 * (0 + 1 + 2 + 3 + 4 + 5 + 6));
}

TEST(ThreadPoolTest, SingleLanePoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> ids;
  pool.RunChunks(16, [&](int64_t) { ids.insert(std::this_thread::get_id()); });
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), caller);
}

// ---------- exception propagation ----------

TEST(ThreadPoolTest, PropagatesFirstExceptionToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.RunChunks(64,
                     [&](int64_t c) {
                       if (c == 13) throw std::runtime_error("chunk 13");
                     }),
      std::runtime_error);
}

TEST(ThreadPoolTest, PoolRemainsUsableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.RunChunks(8, [](int64_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  std::atomic<int64_t> count{0};
  pool.RunChunks(32, [&](int64_t) { count++; });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolTest, ExceptionInInlinePathPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.RunChunks(4,
                     [](int64_t c) {
                       if (c == 2) throw std::logic_error("inline");
                     }),
      std::logic_error);
}

// ---------- ParallelFor grain edge cases ----------

TEST(ParallelForTest, EmptyRangeDoesNothing) {
  int calls = 0;
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(7, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, GrainLargerThanRangeIsOneChunk) {
  std::atomic<int> calls{0};
  int64_t seen_begin = -1, seen_end = -1;
  ParallelFor(2, 9, 100, [&](int64_t b, int64_t e) {
    ++calls;
    seen_begin = b;
    seen_end = e;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_begin, 2);
  EXPECT_EQ(seen_end, 9);
}

TEST(ParallelForTest, NonPositiveGrainIsClampedToOne) {
  EXPECT_EQ(ParallelChunkCount(0, 10, 0), 10);
  EXPECT_EQ(ParallelChunkCount(0, 10, -5), 10);
  std::vector<std::atomic<int>> hits(10);
  ParallelFor(0, 10, 0, [&](int64_t b, int64_t e) {
    EXPECT_EQ(e, b + 1);
    hits[static_cast<size_t>(b)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ChunksTileTheRangeExactly) {
  ThreadPool pool(4);
  for (int64_t grain : {1, 3, 7, 16, 1000}) {
    std::vector<std::atomic<int>> hits(101);
    ParallelFor(
        -50, 51, grain,
        [&](int64_t b, int64_t e) {
          for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i + 50)]++;
        },
        &pool);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "grain " << grain;
  }
}

// ---------- nested-call safety ----------

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  ScopedDefaultPool scoped(&pool);
  std::vector<std::atomic<int>> hits(64 * 64);
  ParallelFor(0, 64, 1, [&](int64_t ob, int64_t oe) {
    for (int64_t o = ob; o < oe; ++o) {
      const std::thread::id outer_thread = std::this_thread::get_id();
      // The nested call must run serially on the same lane.
      ParallelFor(0, 64, 1, [&](int64_t ib, int64_t ie) {
        EXPECT_EQ(std::this_thread::get_id(), outer_thread);
        for (int64_t i = ib; i < ie; ++i) {
          hits[static_cast<size_t>(o * 64 + i)]++;
        }
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---------- ordered reduction determinism ----------

std::vector<double> RandomDoubles(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.Normal(0.0, 1e6);  // large spread stresses FP order
  return x;
}

double MapReduceSum(const std::vector<double>& x, int64_t grain,
                    ThreadPool* pool) {
  return ParallelMapReduce(
      int64_t{0}, static_cast<int64_t>(x.size()), grain, 0.0,
      [&](int64_t b, int64_t e) {
        double s = 0.0;
        for (int64_t i = b; i < e; ++i) s += x[static_cast<size_t>(i)];
        return s;
      },
      [](double a, double b) { return a + b; }, pool);
}

TEST(ParallelMapReduceTest, FloatingPointSumIsBitIdenticalAcrossPoolSizes) {
  const std::vector<double> x = RandomDoubles(10000, 42);
  ThreadPool serial(1), quad(4), wide(8);
  for (int64_t grain : {1, 7, 64, 1024}) {
    const double s1 = MapReduceSum(x, grain, &serial);
    const double s4 = MapReduceSum(x, grain, &quad);
    const double s8 = MapReduceSum(x, grain, &wide);
    // Exact equality: identical chunking + ordered combine, not "close".
    EXPECT_EQ(s1, s4) << "grain " << grain;
    EXPECT_EQ(s1, s8) << "grain " << grain;
  }
}

TEST(ParallelMapReduceTest, NonCommutativeCombinePreservesChunkOrder) {
  ThreadPool pool(8);
  const std::string joined = ParallelMapReduce(
      int64_t{0}, int64_t{26}, /*grain=*/3, std::string(),
      [](int64_t b, int64_t e) {
        std::string s;
        for (int64_t i = b; i < e; ++i) {
          s.push_back(static_cast<char>('a' + i));
        }
        return s;
      },
      [](std::string acc, std::string next) { return acc + next; }, &pool);
  EXPECT_EQ(joined, "abcdefghijklmnopqrstuvwxyz");
}

TEST(ParallelMapReduceTest, EmptyRangeReturnsInit) {
  const int v = ParallelMapReduce(
      int64_t{3}, int64_t{3}, 1, 99, [](int64_t, int64_t) { return 0; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(v, 99);
}

// ---------- overlapping external callers ----------
//
// Batches from different external threads share one pool: each caller
// runs and waits for its own batch, so results, chunk coverage and
// exceptions stay per caller.

TEST(ThreadPoolTest, OverlappingExternalCallersStayExact) {
  const std::vector<double> x = RandomDoubles(4096, 7);
  ThreadPool serial(1);
  const double expected = MapReduceSum(x, 64, &serial);
  ThreadPool pool(4);
  constexpr int kRounds = 200;
  constexpr int64_t kChunks = 16;
  struct CallerLog {
    std::vector<std::atomic<int>> hits =
        std::vector<std::atomic<int>>(kRounds * kChunks);
    std::vector<double> sums = std::vector<double>(kRounds);
    std::vector<std::string> caught;
  };
  CallerLog logs[2];
  // Caller 0 also runs a batch whose chunk 3 throws every tenth round.
  const auto run = [&](int caller) {
    CallerLog& log = logs[caller];
    for (int r = 0; r < kRounds; ++r) {
      try {
        log.sums[static_cast<size_t>(r)] = MapReduceSum(x, 64, &pool);
        pool.RunChunks(kChunks, [&](int64_t c) {
          log.hits[static_cast<size_t>(r * kChunks + c)]++;
        });
        if (caller == 0 && r % 10 == 0) {
          pool.RunChunks(kChunks, [&](int64_t c) {
            if (c == 3) throw std::runtime_error("caller 0");
          });
        }
      } catch (const std::exception& e) {
        log.caught.push_back(e.what());
      }
    }
  };
  std::thread first(run, 0);
  std::thread second(run, 1);
  first.join();
  second.join();
  for (const CallerLog& log : logs) {
    for (const auto& h : log.hits) EXPECT_EQ(h.load(), 1);
    for (double sum : log.sums) EXPECT_EQ(sum, expected);
  }
  EXPECT_EQ(logs[0].caught,
            std::vector<std::string>(kRounds / 10, "caller 0"));
  EXPECT_TRUE(logs[1].caught.empty());
}

// A second external caller must not wait for the first caller's batch:
// a chunk of A's batch waits (10 s at most) for a flag only a chunk of
// B's batch sets.
TEST(ThreadPoolTest, SecondCallerRunsWhileFirstBatchIsInFlight) {
  ThreadPool pool(4);
  std::atomic<bool> a_waiting{false};
  std::atomic<bool> b_ran{false};
  bool a_saw_b = false;
  std::thread a([&] {
    pool.RunChunks(2, [&](int64_t c) {
      if (c != 0) return;
      a_waiting = true;
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!b_ran && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      a_saw_b = b_ran;
    });
  });
  std::thread b([&] {
    while (!a_waiting) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pool.RunChunks(2, [&](int64_t) { b_ran = true; });
  });
  a.join();
  b.join();
  EXPECT_TRUE(a_saw_b);
}

// ---------- pass deadline propagation ----------
//
// A published batch carries the caller's pass deadline, and every worker
// lane re-installs it while it runs the batch's chunks, so a checkpoint in
// any chunk sees the caller's budget.

TEST(ThreadPoolTest, LanesSeeTheCallersPassDeadline) {
  ThreadPool pool(4);
  constexpr int64_t kChunks = 64;
  std::vector<StatusCode> codes(kChunks);
  std::vector<std::thread::id> lanes(kChunks);
  const auto run = [&] {
    pool.RunChunks(kChunks, [&](int64_t c) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      codes[static_cast<size_t>(c)] = CheckPassDeadline().code();
      lanes[static_cast<size_t>(c)] = std::this_thread::get_id();
    });
  };
  {
    // Expired from the start: every checkpoint is at or past it.
    ScopedPassDeadline expired(std::chrono::steady_clock::now());
    run();
  }
  EXPECT_EQ(std::count(codes.begin(), codes.end(),
                       StatusCode::kDeadlineExceeded),
            kChunks);
  EXPECT_GT(std::set<std::thread::id>(lanes.begin(), lanes.end()).size(),
            1u);
  // Outside the scope no lane sees a deadline.
  run();
  EXPECT_EQ(std::count(codes.begin(), codes.end(), StatusCode::kOk), kChunks);
}

// ---------- grain clamping (regression) ----------
//
// `end - begin + grain - 1` used to overflow for huge grains, wrapping the
// chunk count negative and silently skipping the whole range. The grain is
// now clamped to [1, end - begin] before any chunk arithmetic.

TEST(ParallelGrainTest, EffectiveGrainClampsToRange) {
  EXPECT_EQ(ParallelEffectiveGrain(0, 10, 3), 3);        // in range: kept
  EXPECT_EQ(ParallelEffectiveGrain(0, 10, 10), 10);      // exact: kept
  EXPECT_EQ(ParallelEffectiveGrain(0, 10, 11), 10);      // above: one chunk
  EXPECT_EQ(ParallelEffectiveGrain(0, 10, 0), 1);        // nonpositive: 1
  EXPECT_EQ(ParallelEffectiveGrain(0, 10, -5), 1);
  EXPECT_EQ(ParallelEffectiveGrain(0, 10, INT64_MAX), 10);
  // Degenerate range still yields a valid (unused) grain.
  EXPECT_EQ(ParallelEffectiveGrain(5, 5, INT64_MAX), 1);
}

TEST(ParallelGrainTest, ChunkCountIsExactForAnyGrain) {
  EXPECT_EQ(ParallelChunkCount(0, 100, 1), 100);
  EXPECT_EQ(ParallelChunkCount(0, 100, 33), 4);   // 33+33+33+1
  EXPECT_EQ(ParallelChunkCount(0, 100, 100), 1);
  EXPECT_EQ(ParallelChunkCount(0, 100, 101), 1);  // grain > range: one chunk
  EXPECT_EQ(ParallelChunkCount(0, 100, INT64_MAX), 1);
  EXPECT_EQ(ParallelChunkCount(7, 7, INT64_MAX), 0);
}

TEST(ParallelGrainTest, HugeGrainProcessesWholeRange) {
  // The regression: with grain INT64_MAX the overflow made ParallelFor a
  // no-op. Every index must be visited exactly once.
  ThreadPool pool(4);
  for (int64_t grain : {INT64_MAX, INT64_MAX - 1, int64_t{1} << 62}) {
    std::vector<std::atomic<int>> hits(100);
    ParallelFor(
        0, 100, grain,
        [&](int64_t b, int64_t e) {
          for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
        },
        &pool);
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "grain " << grain;
  }
}

TEST(ParallelGrainTest, HugeGrainMapReduceCoversWholeRange) {
  ThreadPool pool(4);
  const std::vector<double> x = RandomDoubles(1000, 7);
  const double expected = MapReduceSum(x, /*grain=*/1000, &pool);
  // Used to return init (0.0) because the range was silently skipped.
  EXPECT_EQ(MapReduceSum(x, INT64_MAX, &pool), expected);
  // Nonpositive grains clamp to 1 and still cover everything (bit-identity
  // with grain 1 follows from the deterministic chunk decomposition).
  EXPECT_EQ(MapReduceSum(x, 0, &pool), MapReduceSum(x, 1, &pool));
  EXPECT_EQ(MapReduceSum(x, -3, &pool), MapReduceSum(x, 1, &pool));
}

TEST(ParallelGrainTest, RangeJustAboveGrainMultipleGetsShortTail) {
  // 65 indices at grain 8 -> 9 chunks, the last of size 1; boundaries are
  // exact multiples of the grain.
  ThreadPool pool(4);
  std::vector<std::pair<int64_t, int64_t>> chunks;
  std::mutex mu;
  ParallelFor(
      0, 65, 8,
      [&](int64_t b, int64_t e) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(b, e);
      },
      &pool);
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 9u);
  for (size_t c = 0; c < chunks.size(); ++c) {
    EXPECT_EQ(chunks[c].first, static_cast<int64_t>(c) * 8);
    EXPECT_EQ(chunks[c].second,
              std::min<int64_t>(65, static_cast<int64_t>(c + 1) * 8));
  }
}

// ---------- end-to-end determinism: 1 thread vs 4 threads ----------

std::vector<double> PlantedAnomalySeries(size_t n, double period,
                                         size_t anomaly_at, size_t anomaly_len,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (size_t t = 0; t < n; ++t) {
    x[t] = std::sin(2.0 * kPi * static_cast<double>(t) / period) +
           rng.Normal(0.0, 0.05);
  }
  for (size_t t = anomaly_at; t < anomaly_at + anomaly_len && t < n; ++t) {
    x[t] = std::sin(4.0 * kPi * static_cast<double>(t) / period) +
           rng.Normal(0.0, 0.05);
  }
  return x;
}

TEST(ParallelDeterminismTest, MerlinDiscordsAreBitIdenticalAt1And4Threads) {
  const std::vector<double> x = PlantedAnomalySeries(900, 30, 450, 30, 21);
  ThreadPool serial(1), quad(4);

  discord::MerlinResult r1, r4;
  {
    ScopedDefaultPool scoped(&serial);
    auto r = discord::Merlin(x, 20, 45, 5);
    ASSERT_TRUE(r.ok());
    r1 = *r;
  }
  {
    ScopedDefaultPool scoped(&quad);
    auto r = discord::Merlin(x, 20, 45, 5);
    ASSERT_TRUE(r.ok());
    r4 = *r;
  }
  ASSERT_FALSE(r1.discords.empty());
  ASSERT_EQ(r1.discords.size(), r4.discords.size());
  for (size_t i = 0; i < r1.discords.size(); ++i) {
    EXPECT_EQ(r1.discords[i].position, r4.discords[i].position) << i;
    EXPECT_EQ(r1.discords[i].length, r4.discords[i].length) << i;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(r1.discords[i].distance, r4.discords[i].distance) << i;
  }
  // The deterministic decomposition extends to the work counters.
  EXPECT_EQ(r1.stats.pointwise_distance_ops, r4.stats.pointwise_distance_ops);
  EXPECT_EQ(r1.stats.candidates_after_phase1,
            r4.stats.candidates_after_phase1);
  EXPECT_EQ(r1.stats.restarts, r4.stats.restarts);
}

TEST(ParallelDeterminismTest, StompProfileIsBitIdenticalAt1And4Threads) {
  // Longer than one STOMP chunk would be ideal but too slow for a unit
  // test; chunk boundaries are exercised by the fixed grain regardless of
  // the series size, and the 1-vs-4-thread contract is what matters here.
  const std::vector<double> x = PlantedAnomalySeries(1200, 40, 600, 40, 22);
  ThreadPool serial(1), quad(4);

  discord::MatrixProfile p1, p4;
  {
    ScopedDefaultPool scoped(&serial);
    auto r = discord::Stomp(x, 40);
    ASSERT_TRUE(r.ok());
    p1 = *r;
  }
  {
    ScopedDefaultPool scoped(&quad);
    auto r = discord::Stomp(x, 40);
    ASSERT_TRUE(r.ok());
    p4 = *r;
  }
  ASSERT_EQ(p1.distances.size(), p4.distances.size());
  for (size_t i = 0; i < p1.distances.size(); ++i) {
    EXPECT_EQ(p1.distances[i], p4.distances[i]) << i;
    EXPECT_EQ(p1.indices[i], p4.indices[i]) << i;
  }
}

TEST(ParallelDeterminismTest, TrainedModelLossesAreBitIdenticalAt1And4Threads) {
  const std::vector<double> train =
      PlantedAnomalySeries(700, 25, /*anomaly_at=*/700, 0, 23);  // no anomaly
  core::TriadConfig config;
  config.epochs = 2;
  config.depth = 1;
  config.hidden_dim = 4;
  config.batch_size = 4;
  config.seed = 5;
  ThreadPool serial(1), quad(4);

  core::TrainStats s1, s4;
  {
    ScopedDefaultPool scoped(&serial);
    core::TriadDetector detector(config);
    ASSERT_TRUE(detector.Fit(train).ok());
    s1 = detector.train_stats();
  }
  {
    ScopedDefaultPool scoped(&quad);
    core::TriadDetector detector(config);
    ASSERT_TRUE(detector.Fit(train).ok());
    s4 = detector.train_stats();
  }
  ASSERT_EQ(s1.epoch_train_loss.size(), s4.epoch_train_loss.size());
  ASSERT_FALSE(s1.epoch_train_loss.empty());
  for (size_t e = 0; e < s1.epoch_train_loss.size(); ++e) {
    EXPECT_EQ(s1.epoch_train_loss[e], s4.epoch_train_loss[e]) << e;
  }
  ASSERT_EQ(s1.epoch_val_loss.size(), s4.epoch_val_loss.size());
  for (size_t e = 0; e < s1.epoch_val_loss.size(); ++e) {
    EXPECT_EQ(s1.epoch_val_loss[e], s4.epoch_val_loss[e]) << e;
  }
}

}  // namespace
}  // namespace triad
