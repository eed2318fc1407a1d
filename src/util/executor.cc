#include "util/executor.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "obs/obs.h"

namespace logmine {

// State shared between the caller of a ParallelFor and the helper tasks
// it enqueues. Helpers hold a shared_ptr, so stale helpers that wake up
// after the loop finished (and the caller returned) only touch live
// memory and exit immediately.
struct Executor::ForLoop {
  size_t count = 0;
  const std::function<void(size_t)>* fn = nullptr;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex mu;
  std::condition_variable all_done;
  std::exception_ptr error;  // first failure, guarded by mu

  // Claims and runs indices until none remain. Returns when the claimed
  // range is exhausted (other participants may still be running).
  void Drain() {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
        std::lock_guard<std::mutex> lock(mu);  // pairs with the wait
        all_done.notify_all();
      }
    }
  }
};

Executor::Executor(int num_workers) {
  if (num_workers <= 0) {
    num_workers = static_cast<int>(std::thread::hardware_concurrency());
    if (num_workers <= 0) num_workers = 1;
  }
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

Executor& Executor::Shared() {
  static Executor* shared = [] {
    int workers = 0;
    if (const char* env = std::getenv("LOGMINE_EXECUTOR_THREADS")) {
      workers = std::atoi(env);
    }
    return new Executor(workers);
  }();
  return *shared;
}

void Executor::WorkerMain() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const int64_t dequeue_ns = obs::MonotonicNowNs();
    // The queue-depth gauge and per-task latency use whatever context
    // is globally installed at execution time; per-task timing is cheap
    // here because tasks are coarse (whole ParallelFor drains), never
    // per-index work.
    // Pinned, not just loaded: a ParallelFor task signals its waiters
    // from inside task(), so the context owner can uninstall and destroy
    // the context before the post-task writes below run. The pin makes
    // that teardown wait for us.
    obs::ObsContext* ctx = obs::AcquireGlobal();
    obs::Count(ctx, obs::Metric::kExecutorQueueDepth, -1);
    if (ctx != nullptr) {
      obs::Observe(ctx, obs::Metric::kExecutorQueueWaitNs,
                   dequeue_ns - task.enqueue_ns);
      const int64_t start_ns = obs::MonotonicNowNs();
      task.fn();
      obs::Observe(ctx, obs::Metric::kExecutorTaskNs,
                   obs::MonotonicNowNs() - start_ns);
      obs::Count(ctx, obs::Metric::kExecutorTasksCompleted);
      obs::ReleaseGlobal();
    } else {
      task.fn();
    }
  }
}

void Executor::ParallelFor(size_t count,
                           const std::function<void(size_t)>& fn,
                           int max_parallelism) const {
  if (count == 0) return;

  auto loop = std::make_shared<ForLoop>();
  loop->count = count;
  loop->fn = &fn;

  obs::Count(obs::Metric::kExecutorParallelLoops);
  int helpers = num_workers();
  if (max_parallelism > 0) {
    helpers = std::min(helpers, max_parallelism - 1);
  }
  helpers = std::min<int>(helpers, static_cast<int>(count) - 1);
  if (helpers <= 0) {
    loop->Drain();  // serial on the caller
  } else {
    obs::Count(obs::Metric::kExecutorQueueDepth, helpers);
    bool saturated;
    {
      std::lock_guard<std::mutex> lock(mu_);
      saturated = !queue_.empty();
      const int64_t enqueue_ns = obs::MonotonicNowNs();
      for (int h = 0; h < helpers; ++h) {
        queue_.push_back({[loop] { loop->Drain(); }, enqueue_ns});
      }
    }
    if (saturated) obs::Count(obs::Metric::kExecutorSaturation);
    cv_.notify_all();
    loop->Drain();  // the caller always participates — no nesting deadlock
    std::unique_lock<std::mutex> lock(loop->mu);
    loop->all_done.wait(lock, [&] {
      return loop->done.load(std::memory_order_acquire) == count;
    });
  }
  if (loop->error) std::rethrow_exception(loop->error);
}

void Executor::ParallelForChunks(
    size_t count, size_t grain,
    const std::function<void(size_t, size_t)>& fn,
    int max_parallelism) const {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  const size_t num_chunks = (count + grain - 1) / grain;
  ParallelFor(
      num_chunks,
      [&](size_t chunk) {
        const size_t begin = chunk * grain;
        fn(begin, std::min(begin + grain, count));
      },
      max_parallelism);
}

}  // namespace logmine
