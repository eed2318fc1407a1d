#include "obs/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace logmine::obs {
namespace {

namespace fs = std::filesystem;

// A stage record closes the event: dur_ns and cpu_ns >= 0, max_rss_kb > 0.
const std::regex kStageRecord(
    R"("dur_ns":\d+,"cpu_ns":\d+,"max_rss_kb":[1-9]\d*\}$)");

std::string TempDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

/// One Chrome trace event's row, start and duration (us).
struct TraceEvent {
  int64_t tid = -1;
  int64_t ts = 0;
  int64_t dur = 0;
};

/// The Chrome trace event named `name`; tid -1 when absent.
TraceEvent FindTraceEvent(const std::string& trace, const std::string& name) {
  TraceEvent found;
  const size_t at = trace.find("{\"name\":\"" + name + "\"");
  if (at == std::string::npos) return found;
  const std::string event = trace.substr(at, trace.find('}', at) - at);
  auto value = [&event](const std::string& key) -> int64_t {
    const size_t key_at = event.find("\"" + key + "\":");
    return key_at == std::string::npos
               ? 0
               : std::stoll(event.substr(key_at + key.size() + 3));
  };
  found.tid = value("tid");
  found.ts = value("ts");
  found.dur = value("dur");
  return found;
}

size_t CountLines(const std::string& text) {
  size_t lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  return lines;
}

TEST(JournalTest, EmitsWideEventsWithRunAndSpanIds) {
  const std::string dir = TempDir("logmine_journal_emit");
  JournalOptions options;
  options.path = dir + "/journal.jsonl";
  Journal journal(options);

  const std::string span = journal.BeginRootSpan("sweep");
  EXPECT_EQ(span, "sweep-1");
  journal.Emit(span + "/d0.r1/a2", "shard_attempt",
               {JournalField::Num("attempt", 2),
                JournalField::Flag("recovered", true),
                JournalField::Str("note", "with \"quotes\"\n")});

  const std::string content = ReadAll(options.path);
  EXPECT_NE(content.find("\"run\":\"" + journal.run_id() + "\",\"tid\":" +
                         std::to_string(CurrentTraceThreadId()) + ","),
            std::string::npos)
      << content;
  EXPECT_NE(content.find("\"span\":\"sweep-1/d0.r1/a2\""), std::string::npos);
  EXPECT_NE(content.find("\"event\":\"shard_attempt\""), std::string::npos);
  EXPECT_NE(content.find("\"attempt\":2"), std::string::npos);
  EXPECT_NE(content.find("\"recovered\":true"), std::string::npos);
  // Quotes and newlines inside string fields are escaped, so the file
  // stays one event per line.
  EXPECT_NE(content.find("with \\\"quotes\\\"\\n"), std::string::npos);
  EXPECT_EQ(CountLines(content), 1u);
  EXPECT_EQ(journal.events_emitted(), 1u);
}

TEST(JournalTest, RunIdsAreProcessUniquePerJournal) {
  Journal a;
  Journal b;
  EXPECT_NE(a.run_id(), b.run_id());
  EXPECT_EQ(a.run_id().rfind("run-", 0), 0u);
}

TEST(JournalTest, MemoryOnlyJournalStillKeepsTail) {
  Journal journal;  // no path
  for (int i = 0; i < 5; ++i) {
    journal.Emit("serve-1", "epoch_ingested", {JournalField::Num("epoch", i)});
  }
  const std::vector<std::string> tail = journal.Tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_NE(tail.front().find("\"epoch\":2"), std::string::npos);
  EXPECT_NE(tail.back().find("\"epoch\":4"), std::string::npos);
}

TEST(JournalTest, TailIsBoundedByCapacity) {
  JournalOptions options;
  options.tail_capacity = 4;
  Journal journal(options);
  for (int i = 0; i < 100; ++i) {
    journal.Emit("span", "event", {JournalField::Num("i", i)});
  }
  EXPECT_EQ(journal.Tail(1000).size(), 4u);
  EXPECT_NE(journal.Tail(1000).back().find("\"i\":99"), std::string::npos);
}

TEST(JournalTest, RotatesWhenFileExceedsThreshold) {
  const std::string dir = TempDir("logmine_journal_rotate");
  JournalOptions options;
  options.path = dir + "/journal.jsonl";
  options.max_bytes_per_file = 512;
  options.max_rotated_files = 2;
  MetricsRegistry metrics;
  Journal journal(options, &metrics);

  for (int i = 0; i < 100; ++i) {
    journal.Emit("span-1", "event", {JournalField::Num("i", i)});
  }
  EXPECT_GT(journal.rotations(), 0u);
  EXPECT_TRUE(fs::exists(options.path + ".1"));
  // No generation beyond the configured cap survives.
  EXPECT_FALSE(fs::exists(options.path + ".3"));
  // The live file restarted below the threshold at the last rotation.
  EXPECT_LE(fs::file_size(options.path), 2 * options.max_bytes_per_file);

  const MetricsSnapshot snap = metrics.Snapshot();
  const MetricsSnapshot::Entry* emitted = snap.Find("journal.events_emitted");
  ASSERT_NE(emitted, nullptr);
  EXPECT_EQ(emitted->value, 100);
  const MetricsSnapshot::Entry* rotations = snap.Find("journal.rotations");
  ASSERT_NE(rotations, nullptr);
  EXPECT_EQ(rotations->value, static_cast<int64_t>(journal.rotations()));
}

TEST(JournalTest, ConcurrentEmittersNeverTearLines) {
  const std::string dir = TempDir("logmine_journal_concurrent");
  JournalOptions options;
  options.path = dir + "/journal.jsonl";
  Journal journal(options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      for (int i = 0; i < kPerThread; ++i) {
        journal.Emit("writer-" + std::to_string(t), "tick",
                     {JournalField::Num("i", i)});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::string content = ReadAll(options.path);
  EXPECT_EQ(CountLines(content),
            static_cast<size_t>(kThreads * kPerThread));
  // Every line is a complete object: starts with '{' and ends with '}'.
  std::istringstream lines(content);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST(JournalToChromeTraceTest, ConvertsEventsAndSkipsTornLines) {
  std::string jsonl;
  jsonl +=
      "{\"ts_ns\":3000000,\"run\":\"run-x\",\"tid\":3,"
      "\"span\":\"sweep-1/d0.r0\",\"event\":\"shard_done\","
      "\"dur_ns\":2000000}\n";
  jsonl +=
      "{\"ts_ns\":3000000,\"run\":\"run-x\",\"span\":\"serve-1\","
      "\"event\":\"health_transition\"}\n";
  jsonl += "{\"ts_ns\":4000000,\"run\":\"run-x\",\"spa";  // torn final line

  const std::string trace = JournalToChromeTrace(jsonl);
  // The complete event became an "X" span with its duration in us,
  // starting dur_ns before its (end-of-scope) timestamp.
  EXPECT_NE(trace.find("\"ts\":1000,\"ph\":\"X\",\"dur\":2000"),
            std::string::npos);
  // The durationless event became an instant.
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  // The row is the journal's tid; a line without one (an older journal)
  // lands on row 0. The torn line contributed nothing.
  EXPECT_NE(trace.find("\"sweep-1/d0.r0 shard_done\",\"pid\":1,\"tid\":3,"),
            std::string::npos)
      << trace;
  EXPECT_NE(
      trace.find("\"serve-1 health_transition\",\"pid\":1,\"tid\":0,"),
      std::string::npos)
      << trace;
  EXPECT_EQ(trace.find("4000"), std::string::npos);
}

// Replay reads journal files and bundle tails it did not write itself,
// so out-of-range integers must neither overflow nor leak into the
// trace: a 20-digit value and a span whose start falls below INT64_MIN
// are skipped like torn lines, while INT64_MIN itself parses exactly.
TEST(JournalToChromeTraceTest, OutOfRangeIntegersAreSkippedNotOverflowed) {
  std::string jsonl;
  jsonl +=
      "{\"ts_ns\":99999999999999999999,\"run\":\"r\",\"span\":\"huge-ts\","
      "\"event\":\"e\"}\n";
  jsonl +=
      "{\"ts_ns\":5000,\"run\":\"r\",\"span\":\"huge-dur\","
      "\"event\":\"e\",\"dur_ns\":12345678901234567890}\n";
  jsonl +=
      "{\"ts_ns\":-9223372036854775808,\"run\":\"r\",\"span\":\"min-ts\","
      "\"event\":\"e\"}\n";
  jsonl +=
      "{\"ts_ns\":-9000000000000000000,\"run\":\"r\",\"span\":\"straddle\","
      "\"event\":\"e\",\"dur_ns\":9000000000000000000}\n";
  jsonl +=
      "{\"ts_ns\":3000,\"run\":\"r\",\"span\":\"ok\","
      "\"event\":\"e\",\"dur_ns\":2000}\n";
  const std::string trace = JournalToChromeTrace(jsonl);
  EXPECT_EQ(trace.find("huge-ts"), std::string::npos) << trace;
  EXPECT_EQ(trace.find("huge-dur"), std::string::npos) << trace;
  EXPECT_EQ(trace.find("straddle"), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"min-ts e\",\"pid\":1,\"tid\":0,"
                       "\"ts\":-9223372036854775,\"ph\":\"i\""),
            std::string::npos)
      << trace;
  EXPECT_NE(trace.find("\"ok e\",\"pid\":1,\"tid\":0,\"ts\":1,\"ph\":\"X\","
                       "\"dur\":2}"),
            std::string::npos)
      << trace;
}

TEST(JournalToChromeTraceTest, NestedSpansStayNestedAfterRounding) {
  // Outer [1999, 10000] ns encloses inner [2000, 10000] ns. Truncating
  // start and duration separately would end the inner span at 10 us,
  // past the outer span's 9 us; rounding both ends instead keeps it in.
  std::string jsonl;
  jsonl +=
      "{\"ts_ns\":10000,\"run\":\"r\",\"span\":\"p-1/l1\","
      "\"event\":\"miner_done\",\"dur_ns\":8000}\n";
  jsonl +=
      "{\"ts_ns\":10000,\"run\":\"r\",\"span\":\"p-1\","
      "\"event\":\"run\",\"dur_ns\":8001}\n";
  const std::string trace = JournalToChromeTrace(jsonl);
  EXPECT_NE(trace.find("\"ts\":2,\"ph\":\"X\",\"dur\":8}"),
            std::string::npos)
      << trace;
  EXPECT_NE(trace.find("\"ts\":1,\"ph\":\"X\",\"dur\":9}"),
            std::string::npos)
      << trace;
}

// Rows follow threads: two threads, each closing an inner span inside an
// outer one, land on two rows, and each row nests like its thread.
TEST(JournalToChromeTraceTest, EachThreadGetsOneRowOfNestedSpans) {
  ObsContext context;
  const char* const kOuter[] = {"a/outer", "b/outer"};
  const char* const kInner[] = {"a/inner", "b/inner"};
  uint32_t tids[2] = {0, 0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      tids[t] = CurrentTraceThreadId();
      TraceSpan outer(&context, kOuter[t]);
      const StageClock spin;
      while (spin.ElapsedNs() < 1000000) {
      }
      TraceSpan inner(&context, kInner[t]);
      while (spin.ElapsedNs() < 2000000) {
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_NE(tids[0], tids[1]);

  std::string jsonl;
  for (const std::string& line : context.journal().Tail(16)) {
    jsonl += line + "\n";
  }
  const std::string trace = JournalToChromeTrace(jsonl);
  for (int t = 0; t < 2; ++t) {
    const TraceEvent outer =
        FindTraceEvent(trace, std::string(kOuter[t]) + " span");
    const TraceEvent inner =
        FindTraceEvent(trace, std::string(kInner[t]) + " span");
    EXPECT_EQ(outer.tid, tids[t]) << trace;
    EXPECT_EQ(inner.tid, tids[t]) << trace;
    EXPECT_GE(inner.ts, outer.ts) << trace;
    EXPECT_LE(inner.ts + inner.dur, outer.ts + outer.dur) << trace;
    EXPECT_GE(outer.dur, 2000) << trace;
  }
}

TEST(JournalToChromeTraceTest, FileConverterRoundTrips) {
  const std::string dir = TempDir("logmine_journal_convert");
  JournalOptions options;
  options.path = dir + "/journal.jsonl";
  {
    Journal journal(options);
    const std::string span = journal.BeginRootSpan("pipeline");
    journal.Emit(span, "pipeline_start");
    const StageClock clock;
    journal.Emit(span + "/l1", "miner_done", clock.End());
  }
  const std::string trace_path = dir + "/trace.json";
  ASSERT_TRUE(ConvertJournalToChromeTrace(options.path, trace_path).ok());
  const std::string trace = ReadAll(trace_path);
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("pipeline-1/l1 miner_done"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);

  EXPECT_EQ(
      ConvertJournalToChromeTrace(dir + "/absent.jsonl", trace_path).code(),
      StatusCode::kNotFound);
}

TEST(TraceSpanTest, SpanRecordsDurationAndOptionalHistogram) {
  ObsContext context;
  {
    TraceSpan span(&context, "unit/scope", Metric::kShardAttemptNs);
    // Spin briefly so the duration is visibly non-negative.
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  // One journal event, stamped at scope exit, carrying the thread and
  // the stage record, plus one latency observation.
  const std::vector<std::string> tail = context.journal().Tail(10);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_NE(tail[0].find("\"span\":\"unit/scope\",\"event\":\"span\""),
            std::string::npos)
      << tail[0];
  EXPECT_TRUE(std::regex_search(tail[0], kStageRecord)) << tail[0];
  EXPECT_NE(tail[0].find("\"tid\":" + std::to_string(CurrentTraceThreadId())),
            std::string::npos);
  const MetricsSnapshot snap = context.metrics().Snapshot();
  const MetricsSnapshot::Entry* latency = snap.Find("shard.attempt_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->sketch.count(), 1);
  EXPECT_GE(latency->sketch.min(), 0);
}

TEST(StageClockTest, EndReportsWallThreadCpuAndPeakRss) {
  const StageClock clock;
  while (clock.ElapsedNs() < 2000000) {
  }
  const StageRecord stage = clock.End();
  EXPECT_GE(stage.dur_ns, 2000000);
  EXPECT_GT(stage.cpu_ns, 0);
  EXPECT_GT(stage.max_rss_kb, 0);
  EXPECT_GE(stage.end_ns, stage.dur_ns);

  // A later End of the same clock reads every counter at or past the
  // first: the clock and the peak RSS are cumulative.
  while (clock.ElapsedNs() < stage.dur_ns + 1000000) {
  }
  const StageRecord later = clock.End();
  EXPECT_GT(later.end_ns, stage.end_ns);
  EXPECT_GT(later.dur_ns, stage.dur_ns);
  EXPECT_GT(later.cpu_ns, stage.cpu_ns);
  EXPECT_GE(later.max_rss_kb, stage.max_rss_kb);
}

// Each closed stage is its own journal event under its span name: a
// stage run twice is two events, not one accumulated row.
TEST(StageClockTest, EveryStageIsOneEventUnderItsName) {
  ObsContext context;
  {
    TraceSpan span(&context, "mine");
    const StageClock spin;
    while (spin.ElapsedNs() < 2000000) {
    }
  }
  { TraceSpan span(&context, "mine"); }
  { TraceSpan span(&context, "publish"); }

  const std::vector<std::string> tail = context.journal().Tail(10);
  ASSERT_EQ(tail.size(), 3u);
  const char* const names[] = {"mine", "mine", "publish"};
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_NE(tail[i].find("\"span\":\"" + std::string(names[i]) +
                           "\",\"event\":\"span\""),
              std::string::npos)
        << tail[i];
    EXPECT_TRUE(std::regex_search(tail[i], kStageRecord)) << tail[i];
  }
  const size_t dur_at = tail[0].find("\"dur_ns\":") + 9;
  EXPECT_GE(std::stoll(tail[0].substr(dur_at)), 2000000);
}

// The event that closes a stage is stamped with the stage's end, not the
// time of the Emit call, and its record follows the caller's fields.
TEST(StageClockTest, StageEventIsStampedAtTheStageEnd) {
  Journal journal;
  const StageClock clock;
  const StageRecord stage = clock.End();
  while (clock.ElapsedNs() < stage.dur_ns + 2000000) {
  }
  journal.Emit("unit", "done", stage, {JournalField::Str("miner", "l1")});
  const std::vector<std::string> tail = journal.Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].rfind("{\"ts_ns\":" + std::to_string(stage.end_ns) + ",",
                          0),
            0u)
      << tail[0];
  EXPECT_NE(tail[0].find(",\"miner\":\"l1\",\"dur_ns\":" +
                         std::to_string(stage.dur_ns) +
                         ",\"cpu_ns\":" + std::to_string(stage.cpu_ns) +
                         ",\"max_rss_kb\":" +
                         std::to_string(stage.max_rss_kb) + "}"),
            std::string::npos)
      << tail[0];
}

// cpu_ns is the calling thread's CPU only: work handed to another thread
// shows in the wall time, not in cpu_ns.
TEST(StageClockTest, CpuCountsOnlyTheCallingThread) {
  const StageClock clock;
  std::thread worker([] {
    const StageClock spin;
    while (spin.ElapsedNs() < 20000000) {
    }
  });
  worker.join();
  const StageRecord stage = clock.End();
  EXPECT_GE(stage.dur_ns, 20000000);
  EXPECT_GE(stage.cpu_ns, 0);
  EXPECT_LT(stage.cpu_ns, stage.dur_ns / 2);
}

TEST(TraceSpanTest, NullContextSpanIsANoop) {
  { TraceSpan span(nullptr, "noop"); }
  { LOGMINE_SPAN(nullptr, "noop/macro"); }
  SUCCEED();
}

// A global span with no context installed journals nothing, even into a
// context that is installed only afterwards.
TEST(TraceSpanTest, GlobalSpanWithoutAnInstalledContextIsANoop) {
  ObsContext context;
  ScopedGlobalObs none(nullptr);
  { LOGMINE_SPAN_GLOBAL("noop/global"); }
  {
    ScopedGlobalObs installed(&context);
    LOGMINE_SPAN_GLOBAL("unit/global");
  }
  { LOGMINE_SPAN_GLOBAL("noop/global"); }
  const std::vector<std::string> tail = context.journal().Tail(10);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_NE(tail[0].find("\"span\":\"unit/global\""), std::string::npos)
      << tail[0];
}

TEST(MonotonicClockTest, NowIsMonotonicAndThreadIdsAreStable) {
  const int64_t a = MonotonicNowNs();
  const int64_t b = MonotonicNowNs();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0);
  const uint32_t tid = CurrentTraceThreadId();
  EXPECT_EQ(CurrentTraceThreadId(), tid);
  uint32_t other = tid;
  std::thread([&other] { other = CurrentTraceThreadId(); }).join();
  EXPECT_NE(other, tid);
}

}  // namespace
}  // namespace logmine::obs
