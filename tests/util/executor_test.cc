#include "util/executor.h"

#include <gtest/gtest.h>

#include "obs/obs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace logmine {
namespace {

TEST(ExecutorTest, ParallelForVisitsEveryIndexExactlyOnce) {
  Executor executor(3);
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> visits(kCount);
  executor.ParallelFor(kCount, [&](size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << i;
  }
}

TEST(ExecutorTest, PerIndexOutputsMergeInIndexOrder) {
  // The determinism contract: workers race, but each index writes its
  // own slot, so the merged sequence is the identity regardless of
  // scheduling.
  Executor executor(4);
  std::vector<size_t> out(500, SIZE_MAX);
  executor.ParallelFor(out.size(), [&](size_t i) { out[i] = i; });
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i);
  }
}

TEST(ExecutorTest, MaxParallelismOneRunsOnTheCallingThread) {
  Executor executor(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(64);
  executor.ParallelFor(
      ran.size(), [&](size_t i) { ran[i] = std::this_thread::get_id(); },
      /*max_parallelism=*/1);
  for (const std::thread::id& id : ran) {
    EXPECT_EQ(id, caller);
  }
}

TEST(ExecutorTest, ExceptionPropagatesAndLoopStillDrains) {
  Executor executor(2);
  std::atomic<size_t> completed{0};
  EXPECT_THROW(
      executor.ParallelFor(100,
                           [&](size_t i) {
                             if (i == 17) throw std::runtime_error("boom");
                             completed.fetch_add(1);
                           }),
      std::runtime_error);
  // Every non-throwing index still ran: no index is abandoned mid-loop.
  EXPECT_EQ(completed.load(), 99u);
}

TEST(ExecutorTest, ReusableAcrossManyCalls) {
  Executor executor(2);
  int64_t total = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<int64_t> parts(16, 0);
    executor.ParallelFor(parts.size(), [&](size_t i) {
      parts[i] = static_cast<int64_t>(i) + round;
    });
    total += std::accumulate(parts.begin(), parts.end(), int64_t{0});
  }
  // sum over rounds of (sum i) + 16 * round
  int64_t expected = 0;
  for (int round = 0; round < 200; ++round) expected += 120 + 16 * round;
  EXPECT_EQ(total, expected);
}

TEST(ExecutorTest, NestedParallelForDoesNotDeadlock) {
  Executor executor(1);  // worst case: a single worker
  std::atomic<int64_t> sum{0};
  executor.ParallelFor(4, [&](size_t outer) {
    executor.ParallelFor(50, [&](size_t inner) {
      sum.fetch_add(static_cast<int64_t>(outer * 1000 + inner));
    });
  });
  int64_t expected = 0;
  for (size_t outer = 0; outer < 4; ++outer) {
    for (size_t inner = 0; inner < 50; ++inner) {
      expected += static_cast<int64_t>(outer * 1000 + inner);
    }
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ExecutorTest, ChunksPartitionTheRangeWithFixedBoundaries) {
  Executor executor(3);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  executor.ParallelForChunks(103, 10, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 11u);
  size_t expected_begin = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_LE(end - begin, 10u);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, 103u);
}

TEST(ExecutorTest, SharedPoolIsAProcessWideSingleton) {
  Executor& a = Executor::Shared();
  Executor& b = Executor::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_workers(), 1);
}

TEST(ExecutorTest, EmptyLoopReturnsImmediately) {
  Executor executor(2);
  bool touched = false;
  executor.ParallelFor(0, [&](size_t) { touched = true; });
  executor.ParallelForChunks(0, 8, [&](size_t, size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ExecutorTest, ThrowingTaskDoesNotPoisonSubsequentLoops) {
  // Failure isolation: a throwing index must neither deadlock the pool
  // nor leak the exception anywhere but the submitting call; the very
  // next ParallelFor on the same pool must behave normally.
  Executor executor(2);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        executor.ParallelFor(
            64, [&](size_t i) { if (i % 7 == 0) throw std::runtime_error("x"); }),
        std::runtime_error);
    std::atomic<size_t> visited{0};
    executor.ParallelFor(64, [&](size_t) { visited.fetch_add(1); });
    EXPECT_EQ(visited.load(), 64u);
  }
}

TEST(ExecutorTest, SerialLoopAlsoDrainsPastAnException) {
  Executor executor(2);
  std::atomic<size_t> completed{0};
  EXPECT_THROW(executor.ParallelFor(
                   10,
                   [&](size_t i) {
                     if (i == 3) throw std::runtime_error("serial");
                     completed.fetch_add(1);
                   },
                   /*max_parallelism=*/1),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 9u);
}

// Regression: a worker's post-task metric writes happen after the task
// has already signalled its waiters, so a global context destroyed
// right after ParallelFor returns was a use-after-free until workers
// pinned the context. Tight install/run/teardown cycles make the race
// window land under TSan.
TEST(ExecutorTest, GlobalObsContextCanBeTornDownRightAfterAWait) {
  Executor executor(4);
  for (int round = 0; round < 200; ++round) {
    obs::ObsContext context;
    obs::ScopedGlobalObs scoped(&context);
    executor.ParallelFor(16, [](size_t) {});
  }
}

TEST(ExecutorTest, SubmitBeyondBusyWorkersCountsSaturation) {
  obs::ObsContext context;
  obs::ScopedGlobalObs scoped(&context);
  {
    Executor executor(1);

    // Occupy the lone worker: a two-index loop whose indices both block
    // needs the caller and the worker, so once both started the worker
    // is busy and every helper task enqueued next sits in the queue.
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    std::atomic<int> started{0};
    std::thread blocker([&] {
      executor.ParallelFor(2, [&](size_t) {
        started.fetch_add(1);
        gate.wait();
      });
    });
    while (started.load() < 2) std::this_thread::yield();

    // Each loop below enqueues one helper and, finding the worker busy,
    // runs both indices on the caller, leaving its helper queued. The
    // first finds an empty queue (the blocker's helper already left
    // it); the second finds the first's helper still waiting — that is
    // saturation.
    std::atomic<int> ran{0};
    executor.ParallelFor(2, [&](size_t) { ran.fetch_add(1); });
    executor.ParallelFor(2, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4);
    release.set_value();
    blocker.join();
  }  // the destructor drains the queued helpers

  const obs::MetricsSnapshot snapshot = context.metrics().Snapshot();
  EXPECT_GE(snapshot.Value(
                obs::MetricName(obs::Metric::kExecutorSaturation)),
            1);
  // The depth gauge nets out to zero once the queue drains.
  EXPECT_EQ(snapshot.Value(
                obs::MetricName(obs::Metric::kExecutorQueueDepth)),
            0);
}

TEST(ExecutorTest, SubmitRecordsQueueWaitSketch) {
  obs::ObsContext context;
  obs::ScopedGlobalObs scoped(&context);
  {
    // One worker, so each two-index loop enqueues exactly one helper.
    Executor executor(1);
    for (int i = 0; i < 32; ++i) {
      executor.ParallelFor(2, [](size_t) {});
    }
  }  // the destructor drains helpers the callers outran

  const obs::MetricsSnapshot snapshot = context.metrics().Snapshot();
  const obs::MetricsSnapshot::Entry* wait = snapshot.Find(
      obs::MetricName(obs::Metric::kExecutorQueueWaitNs));
  ASSERT_NE(wait, nullptr);
  // Every helper task records its enqueue->dequeue wait, so the sketch
  // count matches the task count even with zero saturation.
  EXPECT_EQ(wait->sketch.count(), 32);
  EXPECT_GE(wait->sketch.Quantile(0.5), 0);
  EXPECT_GE(wait->sketch.max(), wait->sketch.Quantile(0.5));
}

}  // namespace
}  // namespace logmine
