#include "bench/e2e/tracer.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

namespace logmine::e2e {
namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::atomic<int64_t> next_span_id{1};
std::atomic<int64_t> next_tid{1};

struct ThreadContext {
  int64_t span = 0;
  int64_t job = -1;
  int64_t tid = next_tid.fetch_add(1);
};
thread_local ThreadContext t_context;

// Chrome trace timestamps are microseconds; three decimals keep the
// nanoseconds.
void PutMicros(std::ostream& os, int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  os << buf;
}

}  // namespace

int64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }
int64_t CpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

Tracer::Span::Span(Tracer* tracer, const char* name, bool cpu)
    : tracer_(tracer), cpu_(cpu) {
  if (tracer_ == nullptr) return;
  record_.name = name;
  record_.id = next_span_id.fetch_add(1);
  record_.parent = t_context.span;
  record_.job = t_context.job;
  record_.tid = t_context.tid;
  saved_parent_ = t_context.span;
  t_context.span = record_.id;
  if (cpu_) cpu_start_ = CpuNs();
  record_.start_ns = WallNs();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.dur_ns = WallNs() - record_.start_ns;
  if (cpu_) record_.cpu_ns = CpuNs() - cpu_start_;
  t_context.span = saved_parent_;
  tracer_->Add(std::move(record_));
}

void Tracer::Span::Arg(const char* key, double value) {
  if (tracer_ != nullptr) record_.args.emplace_back(key, value);
}

Tracer::JobScope::JobScope(int64_t job) : saved_(t_context.job) {
  t_context.job = job;
}

Tracer::JobScope::~JobScope() { t_context.job = saved_; }

Tracer::Adopt::Adopt(int64_t parent, int64_t job)
    : saved_parent_(t_context.span), saved_job_(t_context.job) {
  t_context.span = parent;
  t_context.job = job;
}

Tracer::Adopt::~Adopt() {
  t_context.span = saved_parent_;
  t_context.job = saved_job_;
}

Tracer::Tracer() : origin_ns_(WallNs()) {}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void Tracer::Add(Record record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

Status Tracer::WriteChromeTrace(const std::string& path,
                                const std::string& other_data) const {
  std::vector<const Record*> sorted;
  std::lock_guard<std::mutex> lock(mu_);
  sorted.reserve(records_.size());
  for (const Record& record : records_) sorted.push_back(&record);
  std::sort(sorted.begin(), sorted.end(),
            [](const Record* a, const Record* b) {
              return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                                : a->id < b->id;
            });
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open " + path);
  out.precision(17);
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << other_data
      << ",\n\"traceEvents\": [";
  const char* separator = "\n";
  for (const Record* r : sorted) {
    out << separator << "{\"name\": \"" << r->name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r->tid
        << ", \"ts\": ";
    PutMicros(out, r->start_ns - origin_ns_);
    out << ", \"dur\": ";
    PutMicros(out, r->dur_ns);
    out << ", \"args\": {\"id\": " << r->id << ", \"parent\": " << r->parent
        << ", \"job\": " << r->job;
    if (r->cpu_ns >= 0) out << ", \"cpu_ns\": " << r->cpu_ns;
    for (const auto& [key, value] : r->args) {
      out << ", \"" << key << "\": " << value;
    }
    out << "}}";
    separator = ",\n";
  }
  out << "\n]}\n";
  out.close();
  if (!out) return Status::Internal("cannot write " + path);
  return Status::OK();
}

}  // namespace logmine::e2e
