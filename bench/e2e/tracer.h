#ifndef LOGMINE_BENCH_E2E_TRACER_H_
#define LOGMINE_BENCH_E2E_TRACER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace logmine::e2e {

/// Monotonic wall clock and whole-process CPU clock (user + sys of every
/// thread), both in nanoseconds.
int64_t WallNs();
int64_t CpuNs();

/// In-memory span recorder of the e2e benchmark. The benchmark opens a
/// span around each call it makes into a layer; spans are kept in memory
/// and written once, as Chrome trace_event JSON, when the run ends. The
/// recorder lives entirely in the benchmark — nothing inside the library
/// is instrumented by it.
///
/// Nesting is per thread: a span's parent is the innermost span still
/// open on the same thread when it starts, and it inherits that thread's
/// job number. A thread that works for a span opened elsewhere (the load
/// generator) adopts it with `Tracer::Adopt`.
class Tracer {
 public:
  struct Record {
    const char* name = nullptr;
    int64_t id = 0;
    int64_t parent = 0;  ///< 0 = root
    int64_t job = -1;
    int64_t tid = 0;
    int64_t start_ns = 0;
    int64_t dur_ns = 0;
    int64_t cpu_ns = -1;  ///< -1 = not measured
    std::vector<std::pair<const char*, double>> args;
  };

  /// RAII span; a null tracer makes it a no-op. `name` and every arg key
  /// must be string literals. `cpu` adds the process CPU consumed while
  /// the span was open (two clock_gettime calls — skip it on spans that
  /// wrap microsecond work).
  class Span {
   public:
    Span(Tracer* tracer, const char* name, bool cpu = true);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void Arg(const char* key, double value);
    int64_t id() const { return record_.id; }

   private:
    Tracer* tracer_;
    bool cpu_;
    int64_t cpu_start_ = 0;
    int64_t saved_parent_ = 0;
    Record record_;
  };

  /// Makes spans opened on this thread part of job `job` until the
  /// scope ends (set-up and attribution use negative numbers).
  class JobScope {
   public:
    explicit JobScope(int64_t job);
    ~JobScope();
    JobScope(const JobScope&) = delete;
    JobScope& operator=(const JobScope&) = delete;

   private:
    int64_t saved_;
  };

  /// Makes spans opened on this thread children of span `parent` of job
  /// `job` until the scope ends.
  class Adopt {
   public:
    Adopt(int64_t parent, int64_t job);
    ~Adopt();
    Adopt(const Adopt&) = delete;
    Adopt& operator=(const Adopt&) = delete;

   private:
    int64_t saved_parent_;
    int64_t saved_job_;
  };

  Tracer();

  size_t size() const;

  /// Writes every recorded span as one "X" event (ts/dur in µs, span
  /// id, parent, job, CPU and args under "args"); `other_data` is a JSON
  /// object stored verbatim as the trace's "otherData".
  Status WriteChromeTrace(const std::string& path,
                          const std::string& other_data) const;

 private:
  void Add(Record record);

  const int64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<Record> records_;  // guarded by mu_
};

}  // namespace logmine::e2e

#endif  // LOGMINE_BENCH_E2E_TRACER_H_
