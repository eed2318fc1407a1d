#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <vector>

namespace logmine::core {
namespace {

LogStore TinyStore() {
  LogStore store;
  for (int i = 0; i < 20; ++i) {
    LogRecord record;
    record.client_ts = i * 100;
    record.server_ts = record.client_ts;
    record.source = i % 2 == 0 ? "A" : "B";
    record.user = "u";
    record.message = i % 2 == 0 ? "(SRVX) call()" : "processing";
    EXPECT_TRUE(store.Append(record).ok());
  }
  store.BuildIndex();
  return store;
}

ServiceVocabulary TinyVocab() {
  ServiceVocabulary vocabulary;
  vocabulary.entries.push_back({"SRVX", "http://h/srvx"});
  return vocabulary;
}

/// Journal lines of one default pipeline run with `context` installed
/// globally as well as passed explicitly, as the demo and bench
/// binaries run it.
std::vector<std::string> JournalOfGlobalRun(obs::ObsContext* context) {
  const LogStore store = TinyStore();
  MiningPipeline pipeline(TinyVocab(), PipelineConfig{});
  obs::ScopedGlobalObs scoped(context);
  EXPECT_TRUE(pipeline.Run(store, 0, 10000, context).ok());
  return context->journal().Tail(context->journal().options().tail_capacity);
}

// A stage record closes the event: dur_ns and cpu_ns >= 0, max_rss_kb > 0.
const std::regex kStageRecord(
    R"("dur_ns":\d+,"cpu_ns":\d+,"max_rss_kb":[1-9]\d*\}$)");

/// Start and duration (us) of the Chrome trace event named `name`.
bool FindTraceSpan(const std::string& trace, const std::string& name,
                   int64_t* ts, int64_t* dur) {
  const size_t at = trace.find("{\"name\":\"" + name + "\"");
  if (at == std::string::npos) return false;
  const std::string event = trace.substr(at, trace.find('}', at) - at);
  const size_t ts_at = event.find("\"ts\":");
  const size_t dur_at = event.find("\"dur\":");
  if (ts_at == std::string::npos || dur_at == std::string::npos) return false;
  *ts = std::stoll(event.substr(ts_at + 5));
  *dur = std::stoll(event.substr(dur_at + 6));
  return true;
}

TEST(PipelineTest, RunsAllThreeTechniques) {
  const LogStore store = TinyStore();
  PipelineConfig config;
  config.l1.minlogs = 1;
  config.l1.test.sample_size = 5;
  config.l2.min_cooccurrence = 1;
  config.l2.min_cooccurrence_per_session = 0;
  config.l2.session.min_logs = 2;
  MiningPipeline pipeline(TinyVocab(), config);
  auto result = pipeline.Run(store, 0, 10000);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().l1.has_value());
  EXPECT_TRUE(result.value().l2.has_value());
  EXPECT_TRUE(result.value().l3.has_value());
  // The L3 citation must surface.
  EXPECT_TRUE(result.value().l3->Dependencies(store, TinyVocab())
                  .Contains({"A", "SRVX"}));
}

TEST(PipelineTest, SelectiveExecution) {
  const LogStore store = TinyStore();
  PipelineConfig config;
  config.run_l1 = false;
  config.run_l2 = false;
  MiningPipeline pipeline(TinyVocab(), config);
  auto result = pipeline.Run(store, 0, 10000);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().l1.has_value());
  EXPECT_FALSE(result.value().l2.has_value());
  EXPECT_TRUE(result.value().l3.has_value());
  // Disabled miners report OK status (nothing to do, nothing failed).
  EXPECT_TRUE(result.value().l1_status.ok());
  EXPECT_TRUE(result.value().l2_status.ok());
  EXPECT_TRUE(result.value().all_ok());
}

TEST(PipelineTest, RequiresBuiltIndex) {
  LogStore store;
  LogRecord record;
  record.source = "A";
  ASSERT_TRUE(store.Append(record).ok());
  MiningPipeline pipeline(TinyVocab(), PipelineConfig{});
  EXPECT_FALSE(pipeline.Run(store, 0, 100).ok());
}

TEST(PipelineTest, FailingMinerYieldsPartialResults) {
  // Fail-safe contract: an empty vocabulary sinks L3, but L1 and L2
  // still deliver their models; the failure is reported per-miner.
  const LogStore store = TinyStore();
  PipelineConfig config;
  config.l1.minlogs = 1;
  config.l1.test.sample_size = 5;
  config.l2.min_cooccurrence = 1;
  config.l2.min_cooccurrence_per_session = 0;
  config.l2.session.min_logs = 2;
  MiningPipeline pipeline(ServiceVocabulary{}, config);  // empty vocabulary
  auto result = pipeline.Run(store, 0, 10000);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result.value().l1.has_value());
  EXPECT_TRUE(result.value().l2.has_value());
  EXPECT_FALSE(result.value().l3.has_value());
  EXPECT_TRUE(result.value().l1_status.ok());
  EXPECT_TRUE(result.value().l2_status.ok());
  EXPECT_FALSE(result.value().l3_status.ok());
  EXPECT_FALSE(result.value().all_ok());
  EXPECT_EQ(result.value().first_error().code(),
            result.value().l3_status.code());
}

TEST(PipelineTest, RunWithoutObsContextAttachesNoSnapshot) {
  const LogStore store = TinyStore();
  MiningPipeline pipeline(TinyVocab(), PipelineConfig{});
  auto result = pipeline.Run(store, 0, 10000);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().metrics.has_value());
}

TEST(PipelineTest, RunAttachesMetricsSnapshotToResult) {
  const LogStore store = TinyStore();
  PipelineConfig config;
  config.l1.minlogs = 1;
  config.l1.test.sample_size = 5;
  config.l2.min_cooccurrence = 1;
  config.l2.min_cooccurrence_per_session = 0;
  config.l2.session.min_logs = 2;
  MiningPipeline pipeline(TinyVocab(), config);

  obs::ObsContext context;
  // Install globally too, so the miners' own layer counters land in the
  // same registry the pipeline snapshots — the way the demo and bench
  // binaries run.
  obs::ScopedGlobalObs scoped(&context);
  auto result = pipeline.Run(store, 0, 10000, &context);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().metrics.has_value());

  const obs::MetricsSnapshot& snap = *result.value().metrics;
  EXPECT_EQ(snap.Value("pipeline.runs"), 1);
  EXPECT_EQ(snap.Value("pipeline.miners_ok"), 3);
  EXPECT_EQ(snap.Value("pipeline.miners_failed"), 0);
  EXPECT_EQ(snap.Value("l1.runs"), 1);
  EXPECT_EQ(snap.Value("l2.runs"), 1);
  EXPECT_EQ(snap.Value("l3.runs"), 1);
  EXPECT_GT(snap.Value("l3.logs_scanned"), 0);
  const obs::MetricsSnapshot::Entry* run_ns = snap.Find("pipeline.run_ns");
  ASSERT_NE(run_ns, nullptr);
  EXPECT_EQ(run_ns->sketch.count(), 1);
  // The journal saw the run span plus one miner_done per miner.
  EXPECT_GE(context.journal().events_emitted(), 4u);
}

// Each miner's boundary is recorded once: exactly one journal event
// under "<run>/<miner>", and it carries the miner's stage record.
TEST(PipelineTest, GlobalRunJournalsOneDurationEventPerMiner) {
  obs::ObsContext context;
  const std::vector<std::string> lines = JournalOfGlobalRun(&context);
  for (const char* miner : {"l1", "l2", "l3"}) {
    const std::string needle =
        std::string("\"span\":\"pipeline-1/") + miner + "\"";
    int events = 0;
    for (const std::string& line : lines) {
      if (line.find(needle) == std::string::npos) continue;
      ++events;
      EXPECT_NE(line.find("\"event\":\"miner_done\""), std::string::npos);
      EXPECT_TRUE(std::regex_search(line, kStageRecord)) << line;
    }
    EXPECT_EQ(events, 1) << miner;
  }
}

// Across a whole run, from the pipeline down to the store and executor
// layers: every event names its thread, and every timed one carries the
// full stage record.
TEST(PipelineTest, EveryTimedEventCarriesAStageRecord) {
  obs::ObsContext context;
  const std::vector<std::string> lines = JournalOfGlobalRun(&context);
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"tid\":"), std::string::npos) << line;
    if (line.find("\"dur_ns\":") != std::string::npos) {
      EXPECT_TRUE(std::regex_search(line, kStageRecord)) << line;
    }
  }
}

// Span events are stamped at scope exit, so the Chrome view starts each
// one dur_ns before its timestamp: the run span then encloses every
// miner's span, as it does in time.
TEST(PipelineTest, ChromeTraceRunSpanEnclosesEachMinerSpan) {
  obs::ObsContext context;
  std::string jsonl;
  for (const std::string& line : JournalOfGlobalRun(&context)) {
    jsonl += line + "\n";
  }
  const std::string trace = obs::JournalToChromeTrace(jsonl);
  int64_t run_ts = 0, run_dur = 0;
  ASSERT_TRUE(FindTraceSpan(trace, "pipeline/run span", &run_ts, &run_dur))
      << trace;
  for (const char* miner : {"l1", "l2", "l3"}) {
    int64_t ts = 0, dur = 0;
    ASSERT_TRUE(FindTraceSpan(
        trace, std::string("pipeline-1/") + miner + " miner_done", &ts, &dur))
        << miner << " in " << trace;
    EXPECT_GE(ts, run_ts) << miner;
    EXPECT_LE(ts + dur, run_ts + run_dur) << miner;
  }
}

TEST(PipelineTest, ExplicitObsContextWorksWithoutGlobalInstall) {
  const LogStore store = TinyStore();
  MiningPipeline pipeline(TinyVocab(), PipelineConfig{});
  obs::ObsContext context;
  ASSERT_EQ(obs::Global(), nullptr);
  auto result = pipeline.Run(store, 0, 10000, &context);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().metrics.has_value());
  // Pipeline-level counters land in the explicit context even though no
  // global context is installed; layer counters (l1.runs & co) go to the
  // global context and are dropped here.
  EXPECT_EQ(result.value().metrics->Value("pipeline.runs"), 1);
  EXPECT_EQ(result.value().metrics->Value("pipeline.miners_ok"), 3);
}

}  // namespace
}  // namespace logmine::core
