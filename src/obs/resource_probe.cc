#include "obs/resource_probe.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "obs/journal.h"

namespace logmine::obs {
namespace {

int64_t TimevalToNs(const timeval& tv) {
  return int64_t{tv.tv_sec} * 1'000'000'000 + int64_t{tv.tv_usec} * 1'000;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

int64_t CurrentRssKb() {
  // statm field 2 is resident pages; absent (non-Linux) reads as 0.
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long total_pages = 0;
  long resident_pages = 0;
  const int matched = std::fscanf(f, "%ld %ld", &total_pages, &resident_pages);
  std::fclose(f);
  if (matched != 2) return 0;
  const long page_kb = sysconf(_SC_PAGESIZE) / 1024;
  return int64_t{resident_pages} * page_kb;
}

}  // namespace

ResourceSample ResourceSample::Now() {
  ResourceSample sample;
  sample.wall_ns = MonotonicNowNs();
  sample.thread_cpu_ns = ThreadCpuNs();
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    sample.user_cpu_ns = TimevalToNs(usage.ru_utime);
    sample.system_cpu_ns = TimevalToNs(usage.ru_stime);
    sample.max_rss_kb = usage.ru_maxrss;  // Linux: kilobytes
    sample.voluntary_switches = usage.ru_nvcsw;
    sample.involuntary_switches = usage.ru_nivcsw;
  }
  sample.current_rss_kb = CurrentRssKb();
  return sample;
}

void ResourceProbe::RecordStage(std::string_view stage,
                                const ResourceSample& begin,
                                const ResourceSample& end) {
  std::lock_guard<std::mutex> lock(mu_);
  StageUsage* usage = nullptr;
  for (StageUsage& existing : stages_) {
    if (existing.stage == stage) {
      usage = &existing;
      break;
    }
  }
  if (usage == nullptr) {
    stages_.emplace_back();
    usage = &stages_.back();
    usage->stage = std::string(stage);
  }
  ++usage->invocations;
  usage->wall_ns += end.wall_ns - begin.wall_ns;
  usage->user_cpu_ns += end.user_cpu_ns - begin.user_cpu_ns;
  usage->system_cpu_ns += end.system_cpu_ns - begin.system_cpu_ns;
  usage->thread_cpu_ns += end.thread_cpu_ns - begin.thread_cpu_ns;
  usage->peak_rss_kb = std::max(usage->peak_rss_kb, end.max_rss_kb);
  const int64_t rss_delta = end.current_rss_kb - begin.current_rss_kb;
  if (rss_delta > 0) usage->rss_growth_kb += rss_delta;
  usage->involuntary_switches +=
      end.involuntary_switches - begin.involuntary_switches;
}

std::vector<StageUsage> ResourceProbe::Stages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stages_;
}

std::string ResourceProbe::ToJson() const {
  const std::vector<StageUsage> stages = Stages();
  std::string out = "{\"stages\":[";
  bool first = true;
  for (const StageUsage& stage : stages) {
    if (!first) out += ',';
    first = false;
    out += "{\"stage\":\"";
    // Stage names are identifiers chosen by this codebase; escape the
    // two JSON-breaking characters anyway.
    for (char c : stage.stage) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\",\"invocations\":" + std::to_string(stage.invocations) +
           ",\"wall_ns\":" + std::to_string(stage.wall_ns) +
           ",\"user_cpu_ns\":" + std::to_string(stage.user_cpu_ns) +
           ",\"system_cpu_ns\":" + std::to_string(stage.system_cpu_ns) +
           ",\"thread_cpu_ns\":" + std::to_string(stage.thread_cpu_ns) +
           ",\"peak_rss_kb\":" + std::to_string(stage.peak_rss_kb) +
           ",\"rss_growth_kb\":" + std::to_string(stage.rss_growth_kb) +
           ",\"involuntary_switches\":" +
           std::to_string(stage.involuntary_switches) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace logmine::obs
