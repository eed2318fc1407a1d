#ifndef LOGMINE_UTIL_EXECUTOR_H_
#define LOGMINE_UTIL_EXECUTOR_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace logmine {

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
