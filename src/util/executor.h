#ifndef LOGMINE_UTIL_EXECUTOR_H_
#define LOGMINE_UTIL_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace logmine {

/// Cooperative cancellation flag shared between a controller and the
/// loops it wants to stop. Thread-safe; cancelling is one-way and sticky.
/// Loops observe it between work items — a running item is never
/// preempted, it finishes and then no further items start.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Optional controls of one ParallelFor run. Default-constructed options
/// reproduce the plain overload exactly.
struct RunOptions {
  /// 0 = no cap beyond the pool size; 1 = serial on the caller; n = at
  /// most n threads total (caller included).
  int max_parallelism = 0;
  /// When non-null, checked before each index: once cancelled, remaining
  /// indices are skipped (already-running ones finish).
  const CancelToken* cancel = nullptr;
  /// Wall-clock budget for the loop; <= 0 = none. Measured from the call;
  /// once exhausted, remaining indices are skipped.
  std::chrono::milliseconds deadline{0};
};

/// Pins `options`' relative deadline to an absolute instant, for code
/// that spreads one budget over several sequential phases; the sentinel
/// time_point::max() means "no deadline".
std::chrono::steady_clock::time_point StopDeadline(const RunOptions& options);

/// One cooperative checkpoint inside a long serial loop: Cancelled once
/// `cancel` fired, DeadlineExceeded once `deadline` passed, OK
/// otherwise. `what` names the loop in the error message.
Status CheckStop(const CancelToken* cancel,
                 std::chrono::steady_clock::time_point deadline,
                 const char* what);

/// `base` with its deadline replaced by whatever budget remains until
/// the absolute `deadline` (floored at 1 ms so an expired budget still
/// surfaces as DeadlineExceeded inside the loop, not as a hang).
RunOptions RemainingOptions(const RunOptions& base,
                            std::chrono::steady_clock::time_point deadline);

/// Fixed-size shared worker pool: the single place all compute-bound
/// parallelism in the library runs. Miners no longer spawn raw threads
/// per call; they borrow workers from one process-wide pool (see
/// `Shared()`), so a pipeline running four miners concurrently and a
/// miner fanning out over slots contend for the same bounded set of OS
/// threads.
///
/// Determinism contract: `ParallelFor` only schedules *which thread*
/// runs index i; callers must key any randomness by i (not by thread)
/// and merge per-index outputs in index order. Every miner in
/// `core/` follows that discipline, which is why results are
/// byte-identical for any thread count.
///
/// Nesting is safe: the calling thread always participates in its own
/// loop, so a worker that starts a nested `ParallelFor` makes progress
/// even when every other worker is busy (no pool-exhaustion deadlock).
///
/// Failure isolation: an exception thrown by one index never wedges the
/// pool — the loop drains, the first exception is rethrown to the
/// calling thread, and the workers return to the queue, so subsequent
/// loops on the same pool are unaffected.
class Executor {
 public:
  /// `num_workers` background threads; 0 = hardware concurrency.
  /// The effective parallelism of a loop is workers + the caller.
  explicit Executor(int num_workers = 0);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide pool, created on first use with one worker per
  /// hardware thread (override with LOGMINE_EXECUTOR_THREADS). Never
  /// destroyed — workers idle on a condition variable when unused.
  static Executor& Shared();

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(i) for every i in [0, count), blocking until all are done.
  /// The calling thread participates; up to max_parallelism - 1 workers
  /// help (0 = no cap beyond the pool size; 1 = run serially on the
  /// caller). Indices are claimed in ascending order. If any invocation
  /// throws, the first exception (by completion time) is rethrown here
  /// after the loop drains; remaining indices still run.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn,
                   int max_parallelism = 0) const;

  /// Cancellable/deadlined variant. Returns OK when every index ran;
  /// Cancelled or DeadlineExceeded (naming how many indices were
  /// skipped) when `options.cancel` fired or `options.deadline` expired
  /// mid-loop. Always blocks until the indices that did start have
  /// finished, so shared state the tasks touch stays safe to destroy on
  /// return. Exceptions propagate as in the plain overload.
  Status ParallelFor(size_t count, const std::function<void(size_t)>& fn,
                     const RunOptions& options) const;

  /// Chunked variant: fn(begin, end) over consecutive ranges of at most
  /// `grain` indices. Chunk boundaries depend only on (count, grain), so
  /// per-chunk accumulators merged in chunk order are deterministic for
  /// any thread count.
  void ParallelForChunks(size_t count, size_t grain,
                         const std::function<void(size_t, size_t)>& fn,
                         int max_parallelism = 0) const;

 private:
  struct ForLoop;  // shared state of one ParallelFor

  /// Queue entry: the task plus its enqueue instant, so dequeue can
  /// record the on-queue wait (executor.queue_wait_ns sketch) — the
  /// time-unit face of the saturation counter.
  struct QueuedTask {
    std::function<void()> fn;
    int64_t enqueue_ns = 0;
  };

  void WorkerMain();

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::deque<QueuedTask> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace logmine

#endif  // LOGMINE_UTIL_EXECUTOR_H_
