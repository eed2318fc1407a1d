#include "obs/journal.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "obs/metrics.h"

namespace logmine::obs {
namespace {

std::atomic<uint64_t> g_next_journal{1};

std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

void AppendEscaped(std::string_view s, std::string* out) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

std::string MakeRunId() {
  const auto wall = std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
  std::ostringstream os;
  os << "run-" << std::hex << wall << "-" << ::getpid() << "-"
     << g_next_journal.fetch_add(1, std::memory_order_relaxed);
  return std::move(os).str();
}

std::string RotatedName(const std::string& path, size_t generation) {
  return path + "." + std::to_string(generation);
}

// --- minimal JSONL field extraction for the trace converter ----------
// The journal wrote these lines itself, so the grammar is known: keys
// are unescaped, values are integers, doubles, bools, or escaped
// strings. Anything that fails to parse (e.g. a torn final line after a
// crash) is skipped.

bool FindKey(std::string_view line, std::string_view key, size_t* value_at) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const size_t at = line.find(needle);
  if (at == std::string_view::npos) return false;
  *value_at = at + needle.size();
  return true;
}

bool ExtractInt(std::string_view line, std::string_view key, int64_t* out) {
  size_t at = 0;
  if (!FindKey(line, key, &at)) return false;
  const bool negative = at < line.size() && line[at] == '-';
  if (negative) ++at;
  if (at >= line.size() || line[at] < '0' || line[at] > '9') return false;
  // The magnitude accumulates unsigned up to INT64_MAX (one more when
  // negative, for INT64_MIN); a longer value fails like a torn line.
  const uint64_t limit =
      static_cast<uint64_t>(INT64_MAX) + (negative ? 1u : 0u);
  uint64_t magnitude = 0;
  while (at < line.size() && line[at] >= '0' && line[at] <= '9') {
    const auto digit = static_cast<uint64_t>(line[at] - '0');
    if (magnitude > (limit - digit) / 10) return false;
    magnitude = magnitude * 10 + digit;
    ++at;
  }
  *out = static_cast<int64_t>(negative ? 0 - magnitude : magnitude);
  return true;
}

bool ExtractString(std::string_view line, std::string_view key,
                   std::string* out) {
  size_t at = 0;
  if (!FindKey(line, key, &at)) return false;
  if (at >= line.size() || line[at] != '"') return false;
  ++at;
  out->clear();
  while (at < line.size() && line[at] != '"') {
    if (line[at] == '\\' && at + 1 < line.size()) {
      ++at;
      switch (line[at]) {
        case 'n':
          *out += '\n';
          break;
        case 't':
          *out += '\t';
          break;
        default:
          *out += line[at];
      }
    } else {
      *out += line[at];
    }
    ++at;
  }
  return at < line.size();  // saw the closing quote
}

int64_t ThreadCpuNs() {
  timespec now{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec;
}

}  // namespace

int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - ProcessEpoch())
      .count();
}

uint32_t CurrentTraceThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

StageClock::StageClock()
    : start_ns_(MonotonicNowNs()), start_cpu_ns_(ThreadCpuNs()) {}

int64_t StageClock::ElapsedNs() const { return MonotonicNowNs() - start_ns_; }

StageRecord StageClock::End() const {
  StageRecord record;
  record.end_ns = MonotonicNowNs();
  record.dur_ns = record.end_ns - start_ns_;
  record.cpu_ns = ThreadCpuNs() - start_cpu_ns_;
  // ru_maxrss is the process's high-water mark (in KiB on Linux) for
  // every `who`; RUSAGE_THREAD skips summing the other threads' times.
  rusage usage{};
  if (::getrusage(RUSAGE_THREAD, &usage) == 0) {
    record.max_rss_kb = usage.ru_maxrss;
  }
  return record;
}

JournalField JournalField::Str(std::string_view key, std::string_view value) {
  JournalField field;
  field.key = std::string(key);
  AppendEscaped(value, &field.value);
  return field;
}

JournalField JournalField::Num(std::string_view key, int64_t value) {
  return {std::string(key), std::to_string(value)};
}

JournalField JournalField::Flag(std::string_view key, bool value) {
  return {std::string(key), value ? "true" : "false"};
}

Journal::Journal(const JournalOptions& options, MetricsRegistry* metrics)
    : options_(options), metrics_(metrics), run_id_(MakeRunId()) {
  if (!options_.path.empty()) {
    file_.open(options_.path, std::ios::out | std::ios::app);
    if (file_.is_open()) {
      file_.seekp(0, std::ios::end);
      const auto pos = file_.tellp();
      bytes_written_ = pos > 0 ? static_cast<size_t>(pos) : 0;
    }
  }
}

Journal::~Journal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_.is_open()) file_.flush();
}

std::string Journal::BeginRootSpan(std::string_view prefix) {
  std::string span(prefix);
  span += '-';
  span += std::to_string(next_span_.fetch_add(1, std::memory_order_relaxed) +
                         1);
  return span;
}

void Journal::Emit(std::string_view span, std::string_view event,
                   const std::vector<JournalField>& fields) {
  Append(MonotonicNowNs(), span, event, fields);
}

void Journal::Emit(std::string_view span, std::string_view event,
                   const StageRecord& stage, std::vector<JournalField> fields) {
  fields.push_back(JournalField::Num("dur_ns", stage.dur_ns));
  fields.push_back(JournalField::Num("cpu_ns", stage.cpu_ns));
  fields.push_back(JournalField::Num("max_rss_kb", stage.max_rss_kb));
  Append(stage.end_ns, span, event, fields);
}

void Journal::Append(int64_t ts_ns, std::string_view span,
                     std::string_view event,
                     const std::vector<JournalField>& fields) {
  std::string line = "{\"ts_ns\":";
  line += std::to_string(ts_ns);
  line += ",\"run\":";
  AppendEscaped(run_id_, &line);
  line += ",\"tid\":";
  line += std::to_string(CurrentTraceThreadId());
  line += ",\"span\":";
  AppendEscaped(span, &line);
  line += ",\"event\":";
  AppendEscaped(event, &line);
  for (const JournalField& field : fields) {
    line += ',';
    AppendEscaped(field.key, &line);
    line += ':';
    line += field.value;
  }
  line += '}';

  std::lock_guard<std::mutex> lock(mu_);
  ++events_;
  if (file_.is_open()) {
    file_ << line << '\n';
    file_.flush();  // truthful-after-SIGKILL is the whole point
    bytes_written_ += line.size() + 1;
    if (bytes_written_ >= options_.max_bytes_per_file) RotateLocked();
  }
  tail_.push_back(std::move(line));
  while (tail_.size() > options_.tail_capacity) tail_.pop_front();
  if (metrics_ != nullptr) {
    metrics_->Add(Metric::kJournalEventsEmitted, 1);
  }
}

void Journal::RotateLocked() {
  file_.close();
  if (options_.max_rotated_files == 0) {
    std::remove(options_.path.c_str());
  } else {
    std::remove(RotatedName(options_.path, options_.max_rotated_files).c_str());
    for (size_t g = options_.max_rotated_files; g > 1; --g) {
      std::rename(RotatedName(options_.path, g - 1).c_str(),
                  RotatedName(options_.path, g).c_str());
    }
    std::rename(options_.path.c_str(),
                RotatedName(options_.path, 1).c_str());
  }
  file_.open(options_.path, std::ios::out | std::ios::trunc);
  bytes_written_ = 0;
  ++rotations_;
  if (metrics_ != nullptr) metrics_->Add(Metric::kJournalRotations, 1);
}

std::vector<std::string> Journal::Tail(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t take = std::min(n, tail_.size());
  return std::vector<std::string>(tail_.end() - static_cast<long>(take),
                                  tail_.end());
}

uint64_t Journal::events_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

uint64_t Journal::rotations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rotations_;
}

std::string JournalToChromeTrace(std::string_view jsonl) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  size_t begin = 0;
  while (begin < jsonl.size()) {
    size_t end = jsonl.find('\n', begin);
    if (end == std::string_view::npos) end = jsonl.size();
    const std::string_view line = jsonl.substr(begin, end - begin);
    begin = end + 1;
    int64_t ts_ns = 0;
    std::string span, event;
    if (!ExtractInt(line, "ts_ns", &ts_ns) ||
        !ExtractString(line, "span", &span) ||
        !ExtractString(line, "event", &event)) {
      continue;  // torn or foreign line
    }
    // An event is stamped when its scope closes: a span starts dur_ns
    // before its own timestamp. A duration that does not parse, or whose
    // start falls outside int64, marks the line as torn too.
    size_t dur_at = 0;
    const bool complete = FindKey(line, "dur_ns", &dur_at);
    int64_t dur_ns = 0;
    int64_t start_ns = ts_ns;
    if (complete && (!ExtractInt(line, "dur_ns", &dur_ns) ||
                     __builtin_sub_overflow(ts_ns, dur_ns, &start_ns))) {
      continue;
    }
    // One row per emitting thread, so concurrent stages (the miners of
    // one pipeline run, the cells of a sweep) lay out as parallel rows
    // and each row nests like its thread's call stack. A line without a
    // tid (an older journal) stays on row 0.
    int64_t tid = 0;
    (void)ExtractInt(line, "tid", &tid);
    if (!first) out += ',';
    first = false;
    std::string name;
    AppendEscaped(span + " " + event, &name);
    // Both ends are rounded to microseconds separately, so nesting in
    // nanoseconds stays nesting in the trace.
    const int64_t end_us = ts_ns / 1000;
    const int64_t start_us = start_ns / 1000;
    out += "{\"name\":" + name + ",\"pid\":1,\"tid\":" +
           std::to_string(tid) + ",\"ts\":" + std::to_string(start_us);
    if (complete) {
      out += ",\"ph\":\"X\",\"dur\":" + std::to_string(end_us - start_us) +
             "}";
    } else {
      out += ",\"ph\":\"i\",\"s\":\"t\"}";
    }
  }
  out += "]}";
  return out;
}

Status ConvertJournalToChromeTrace(const std::string& journal_path,
                                   const std::string& trace_path) {
  std::ifstream in(journal_path, std::ios::in | std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("journal file not found: " + journal_path);
  }
  std::ostringstream content;
  content << in.rdbuf();
  const std::string trace = JournalToChromeTrace(content.str());
  std::ofstream out(trace_path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) {
    return Status::Internal("cannot write trace file: " + trace_path);
  }
  out << trace;
  return out.good() ? Status::OK()
                    : Status::Internal("short write: " + trace_path);
}

}  // namespace logmine::obs
