#include "serve/streaming_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/serialization.h"
#include "obs/obs.h"
#include "util/snapshot.h"

namespace logmine::serve {
namespace {

/// Per-test state directory; ctest runs each test case as its own
/// process, so the name keys isolation and remove_all clears leftovers.
std::string FreshStatePath(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("logmine_serve_" + name);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir);
  return (dir / "state.snapshot").string();
}

LogRecord Rec(TimeMs ts, std::string source, std::string user,
              std::string message) {
  LogRecord record;
  record.client_ts = ts;
  record.server_ts = ts;
  record.source = std::move(source);
  record.host = "h";
  record.user = std::move(user);
  record.message = std::move(message);
  return record;
}

/// The records as an epoch batch carries them: an indexed store.
EpochBatch Batch(int epoch, const std::vector<LogRecord>& records = {}) {
  EpochBatch batch;
  batch.begin = epoch * 1000;
  batch.end = batch.begin + 1000;
  for (const LogRecord& record : records) {
    EXPECT_TRUE(batch.records.Append(record).ok());
  }
  batch.records.BuildIndex();
  return batch;
}

/// A 1-second epoch grid and a manual clock the test advances by hand.
ServiceConfig TinyConfig(std::shared_ptr<int64_t> clock) {
  ServiceConfig config;
  config.window.epoch_length = 1000;
  config.window.window_epochs = 4;
  config.window.l1.minlogs = 1;
  config.now_ms = [clock] { return *clock; };
  return config;
}

TEST(StreamingServiceTest, CreateValidatesTheConfig) {
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig bad = TinyConfig(clock);
  bad.max_queue_batches = 0;
  EXPECT_FALSE(StreamingMiningService::Create(bad).ok());
  bad = TinyConfig(clock);
  bad.publish_every_epochs = 0;
  EXPECT_FALSE(StreamingMiningService::Create(bad).ok());
  bad = TinyConfig(clock);
  bad.degraded_after_ms = 10'000;
  bad.stale_after_ms = 5'000;  // degradation ladder out of order
  EXPECT_FALSE(StreamingMiningService::Create(bad).ok());
  bad = TinyConfig(clock);
  bad.window.epoch_length = 0;  // window validation propagates
  EXPECT_FALSE(StreamingMiningService::Create(bad).ok());

  auto ok = StreamingMiningService::Create(TinyConfig(clock));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok.value()->CurrentModel(), nullptr);
  EXPECT_FALSE(ok.value()->recovered());
}

TEST(StreamingServiceTest, OverloadShedsTheOldestBatchAndKeepsServing) {
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig config = TinyConfig(clock);
  config.max_queue_batches = 2;
  auto created = StreamingMiningService::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  StreamingMiningService& service = *created.value();

  EXPECT_EQ(service.SubmitBatch(Batch(0)).outcome, SubmitOutcome::kAccepted);
  EXPECT_EQ(service.SubmitBatch(Batch(1)).outcome, SubmitOutcome::kAccepted);
  const SubmitResult third = service.SubmitBatch(Batch(2));
  EXPECT_EQ(third.outcome, SubmitOutcome::kAcceptedShedOldest);
  EXPECT_EQ(third.queue_depth, 2u);
  EXPECT_EQ(service.queue_depth(), 2u);
  EXPECT_EQ(service.stats().batches_shed, 1);
  EXPECT_EQ(service.Health().shed_total, 1);

  auto drained = service.Drain();
  ASSERT_TRUE(drained.ok()) << drained.status();
  EXPECT_EQ(drained.value(), 2);  // epoch 0 was shed, 1 and 2 processed
  auto model = service.CurrentModel();
  ASSERT_NE(model, nullptr);
  // The freshest data won: the window ends at epoch 2's end.
  EXPECT_EQ(model->models.window_end, 3000);
  EXPECT_EQ(service.stats().epochs_ingested, 2);
}

TEST(StreamingServiceTest, ClockRegressionIsRejectedWithoutSideEffects) {
  auto clock = std::make_shared<int64_t>(0);
  auto created = StreamingMiningService::Create(TinyConfig(clock));
  ASSERT_TRUE(created.ok()) << created.status();
  StreamingMiningService& service = *created.value();

  EXPECT_EQ(service.SubmitBatch(Batch(1)).outcome, SubmitOutcome::kAccepted);
  // An hour at or before the accepted watermark replays the past.
  EXPECT_EQ(service.SubmitBatch(Batch(1)).outcome,
            SubmitOutcome::kRejectedClockRegression);
  EXPECT_EQ(service.SubmitBatch(Batch(0)).outcome,
            SubmitOutcome::kRejectedClockRegression);
  EXPECT_EQ(service.stats().clock_regressions, 2);
  EXPECT_EQ(service.queue_depth(), 1u);

  auto drained = service.Drain();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained.value(), 1);
  EXPECT_EQ(service.CurrentModel()->models.window_end, 2000);
}

TEST(StreamingServiceTest, PublishCadenceFollowsTheConfiguredStride) {
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig config = TinyConfig(clock);
  config.publish_every_epochs = 2;
  auto created = StreamingMiningService::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  StreamingMiningService& service = *created.value();

  for (int epoch = 0; epoch < 4; ++epoch) {
    service.SubmitBatch(Batch(epoch));
  }
  auto step = service.Step();
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step.value(), StepOutcome::kIngested);
  EXPECT_EQ(service.CurrentModel(), nullptr);
  step = service.Step();
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step.value(), StepOutcome::kPublished);
  auto first = service.CurrentModel();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->number, 1);
  step = service.Step();
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step.value(), StepOutcome::kIngested);
  step = service.Step();
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step.value(), StepOutcome::kPublished);
  step = service.Step();
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step.value(), StepOutcome::kIdle);

  auto model = service.CurrentModel();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->number, 2);
  EXPECT_EQ(model->models.window_end, 4000);
  EXPECT_EQ(model->epochs_ingested, 4);
  EXPECT_EQ(model->config_fingerprint, service.config_fingerprint());
  // The published generation proves its own integrity: the stored CRC
  // re-derives from the canonical bytes (the torn-model check).
  EXPECT_EQ(model->self_crc, Crc32(SerializeGeneration(*model)));
  EXPECT_EQ(service.stats().generations_published, 2);
}

TEST(StreamingServiceTest, HealthWalksTheDegradationLadder) {
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig config = TinyConfig(clock);
  config.degraded_after_ms = 5'000;
  config.stale_after_ms = 30'000;
  auto created = StreamingMiningService::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  StreamingMiningService& service = *created.value();

  HealthReport report = service.Health();
  EXPECT_EQ(report.state, HealthState::kStarting);
  EXPECT_EQ(report.ms_since_publish, -1);
  EXPECT_EQ(report.generation, 0);

  *clock = 100;
  service.SubmitBatch(Batch(0));
  ASSERT_TRUE(service.Drain().ok());
  report = service.Health();
  EXPECT_EQ(report.state, HealthState::kHealthy);
  EXPECT_EQ(report.generation, 1);
  EXPECT_EQ(report.ms_since_publish, 0);

  *clock = 6'000;
  EXPECT_EQ(service.Health().state, HealthState::kDegraded);
  *clock = 40'000;
  report = service.Health();
  EXPECT_EQ(report.state, HealthState::kStaleServing);
  EXPECT_EQ(report.ms_since_publish, 39'900);

  // A publish heals the service: straight back to healthy.
  service.SubmitBatch(Batch(1));
  ASSERT_TRUE(service.Drain().ok());
  EXPECT_EQ(service.Health().state, HealthState::kHealthy);
  EXPECT_GE(service.stats().health_transitions, 4);

  EXPECT_EQ(HealthStateName(HealthState::kStaleServing), "stale-serving");
}

TEST(StreamingServiceTest, HealthReportsTheAgeItsStateCameFrom) {
  // A clock that advances 1 ms per read: two reads in one report would
  // straddle the degraded threshold.
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig config = TinyConfig(clock);
  config.now_ms = [clock] { return (*clock)++; };
  auto created = StreamingMiningService::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  StreamingMiningService& service = *created.value();
  service.SubmitBatch(Batch(0));
  ASSERT_TRUE(service.Drain().ok());
  ASSERT_EQ(service.stats().generations_published, 1);

  // A report's last clock reading was *clock - 1 and saw this age, so
  // the publish read *clock - 1 - age. Move the clock to 1 ms short of
  // degraded after it.
  const int64_t age = service.Health().ms_since_publish;
  *clock += config.degraded_after_ms - 2 - age;
  const HealthReport report = service.Health();
  EXPECT_EQ(report.state, HealthState::kHealthy);
  EXPECT_EQ(report.ms_since_publish, config.degraded_after_ms - 1);
}

/// One hour of appA logs citing svc1, which appB provides: the L3 layer
/// plus the owner map yields the directed edge appA -> appB.
std::vector<LogRecord> CitingRecords(int epoch) {
  std::vector<LogRecord> records;
  for (int i = 0; i < 5; ++i) {
    records.push_back(Rec(epoch * 1000 + i * 100, "appA", "u",
                          "call to svc1 timed out"));
  }
  return records;
}

ServiceConfig QueryConfig(std::shared_ptr<int64_t> clock) {
  ServiceConfig config = TinyConfig(clock);
  config.window.vocabulary.entries.push_back({"svc1", "http://svc1/api"});
  config.window.l3.use_stop_patterns = false;
  config.entry_owner["svc1"] = "appB";
  return config;
}

TEST(StreamingServiceTest, QueriesWalkThePublishedGraph) {
  auto clock = std::make_shared<int64_t>(0);
  auto created = StreamingMiningService::Create(QueryConfig(clock));
  ASSERT_TRUE(created.ok()) << created.status();
  StreamingMiningService& service = *created.value();

  // No generation yet: queries fail precondition rather than fabricate.
  EXPECT_EQ(service.WhatDependsOn("appB").status().code(),
            StatusCode::kFailedPrecondition);

  service.SubmitBatch(Batch(0, CitingRecords(0)));
  ASSERT_TRUE(service.Drain().ok());

  auto depends = service.WhatDependsOn("appB");
  ASSERT_TRUE(depends.ok()) << depends.status();
  EXPECT_EQ(depends.value().generation, 1);
  EXPECT_EQ(depends.value().health, HealthState::kHealthy);
  EXPECT_EQ(depends.value().components, std::set<std::string>{"appA"});

  auto impact = service.ImpactOf("appB");
  ASSERT_TRUE(impact.ok()) << impact.status();
  EXPECT_EQ(impact.value().components, std::set<std::string>{"appA"});

  // An unknown component is an empty answer, not an error.
  auto unknown = service.WhatDependsOn("never-logged");
  ASSERT_TRUE(unknown.ok()) << unknown.status();
  EXPECT_TRUE(unknown.value().components.empty());
  // Four queries hit the service, counting the refused early one.
  EXPECT_EQ(service.stats().queries_served, 4);
}

// Queries are timed into serve.query_ns but never journaled: a flushed
// journal line per query would put disk writes on the query path.
TEST(StreamingServiceTest, QueriesObserveLatencyButAddNoJournalLines) {
  auto clock = std::make_shared<int64_t>(0);
  obs::ObsContext context;
  ServiceConfig config = QueryConfig(clock);
  config.obs = &context;
  auto created = StreamingMiningService::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  StreamingMiningService& service = *created.value();
  service.SubmitBatch(Batch(0, CitingRecords(0)));
  ASSERT_TRUE(service.Drain().ok());
  ASSERT_EQ(service.Health().state, HealthState::kHealthy);

  const uint64_t journaled = context.journal().events_emitted();
  constexpr int kQueries = 25;
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE((i % 2 == 0 ? service.ImpactOf("appB")
                            : service.WhatDependsOn("appB"))
                    .ok());
  }
  EXPECT_EQ(context.journal().events_emitted(), journaled);
  EXPECT_EQ(context.metrics().Snapshot().Value("serve.query_ns"), kQueries);
}

// Readers query while the writer ingests and publishes: each answer
// comes whole from one generation, and generations only move forward.
// Under tsan this also checks that the query path shares no mutable
// state between readers or with the writer.
TEST(StreamingServiceTest, ConcurrentReadersSeeWholeGenerations) {
  auto clock = std::make_shared<int64_t>(0);
  auto created = StreamingMiningService::Create(QueryConfig(clock));
  ASSERT_TRUE(created.ok()) << created.status();
  StreamingMiningService& service = *created.value();

  std::atomic<bool> done{false};
  // Per reader: the generation of its latest answer.
  std::atomic<int64_t> seen[2] = {0, 0};
  // Each reader alternates the two queries, out of step with the other,
  // so both query paths also run against each other.
  auto reader = [&](int index) {
    std::atomic<int64_t>& last = seen[index];
    for (int i = index; !done.load(); ++i) {
      auto answer = i % 2 == 0 ? service.ImpactOf("appB")
                               : service.WhatDependsOn("appB");
      if (!answer.ok()) {
        // Only before the first publish.
        EXPECT_EQ(answer.status().code(), StatusCode::kFailedPrecondition);
        EXPECT_EQ(last.load(), 0);
        continue;
      }
      EXPECT_GE(answer.value().generation, last.load());
      EXPECT_EQ(answer.value().components, std::set<std::string>{"appA"});
      last = answer.value().generation;
    }
  };
  std::thread first(reader, 0);
  std::thread second(reader, 1);
  constexpr int kEpochs = 12;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    service.SubmitBatch(Batch(epoch, CitingRecords(epoch)));
    auto drained = service.Drain();
    EXPECT_TRUE(drained.ok()) << drained.status();
  }
  const int64_t final_generation = service.CurrentModel()->number;
  // Both readers must have answered from the last generation.
  while (seen[0].load() < final_generation ||
         seen[1].load() < final_generation) {
    std::this_thread::yield();
  }
  done = true;
  first.join();
  second.join();
  EXPECT_EQ(final_generation, kEpochs);
}

/// A batch whose records were never indexed: the poison IngestEpoch
/// rejects.
EpochBatch Unindexed(int epoch) {
  EpochBatch batch;
  batch.begin = epoch * 1000;
  batch.end = batch.begin + 1000;
  EXPECT_TRUE(batch.records.Append(Rec(batch.begin + 500, "A", "u", "x")).ok());
  return batch;
}

TEST(StreamingServiceTest, PoisonBatchIsQuarantinedAndServingContinues) {
  auto clock = std::make_shared<int64_t>(0);
  auto created = StreamingMiningService::Create(TinyConfig(clock));
  ASSERT_TRUE(created.ok()) << created.status();
  StreamingMiningService& service = *created.value();

  service.SubmitBatch(Batch(0));
  service.SubmitBatch(Unindexed(1));  // quarantined at ingest
  service.SubmitBatch(Batch(2));
  auto step = service.Step();
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step.value(), StepOutcome::kPublished);
  step = service.Step();
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step.value(), StepOutcome::kPoisoned);
  // The previous generation survived the poison untouched.
  ASSERT_NE(service.CurrentModel(), nullptr);
  EXPECT_EQ(service.CurrentModel()->number, 1);
  step = service.Step();
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step.value(), StepOutcome::kPublished);
  EXPECT_EQ(service.stats().batches_poisoned, 1);
  EXPECT_EQ(service.CurrentModel()->models.window_end, 3000);

  // So does a record outside its claimed hour.
  service.SubmitBatch(Batch(3, {Rec(9'999, "A", "u", "x")}));
  step = service.Step();
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step.value(), StepOutcome::kPoisoned);
  EXPECT_EQ(service.stats().batches_poisoned, 2);
  EXPECT_EQ(service.CurrentModel()->models.window_end, 3000);
}

TEST(StreamingServiceTest, CrashMidPublishRecoversAndResumesNumbering) {
  const std::string state_path = FreshStatePath("crash_recover");
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig config = TinyConfig(clock);
  config.state_path = state_path;

  {
    auto created = StreamingMiningService::Create(config);
    ASSERT_TRUE(created.ok()) << created.status();
    StreamingMiningService& service = *created.value();
    for (int epoch = 0; epoch < 4; ++epoch) {
      service.SubmitBatch(Batch(epoch));
    }
    // Three steps publish epochs 0-2; then the process dies with epoch 3
    // still queued. Each step persists before its swap, so the disk
    // holds what a death between persist and swap would have left.
    for (int step = 0; step < 3; ++step) {
      auto outcome = service.Step();
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      EXPECT_EQ(outcome.value(), StepOutcome::kPublished);
    }
    EXPECT_EQ(service.queue_depth(), 1u);
  }

  // Rebuild from the snapshot: epoch 2 was persisted before the death,
  // so recovery serves generation 3.
  auto recovered = StreamingMiningService::Create(config);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  StreamingMiningService& service = *recovered.value();
  EXPECT_TRUE(service.recovered());
  ASSERT_NE(service.CurrentModel(), nullptr);
  EXPECT_EQ(service.CurrentModel()->number, 3);
  EXPECT_EQ(service.CurrentModel()->models.window_end, 3000);
  EXPECT_EQ(service.CurrentModel()->self_crc,
            Crc32(SerializeGeneration(*service.CurrentModel())));

  // Blind resubmission of everything is safe: ingested hours bounce off
  // the recovered watermark, only epoch 3 is still new.
  for (int epoch = 0; epoch < 4; ++epoch) {
    const SubmitResult result = service.SubmitBatch(Batch(epoch));
    EXPECT_EQ(result.outcome, epoch < 3
                                  ? SubmitOutcome::kRejectedClockRegression
                                  : SubmitOutcome::kAccepted)
        << epoch;
  }
  auto drained = service.Drain();
  ASSERT_TRUE(drained.ok()) << drained.status();
  EXPECT_EQ(drained.value(), 1);
  EXPECT_EQ(service.CurrentModel()->number, 4);  // numbering continued
  EXPECT_EQ(service.CurrentModel()->models.window_end, 4000);
}

/// Every ServiceStats field against the serve.* counter that mirrors it.
void ExpectStatsMirrorMetrics(const ServiceStats& stats,
                              const obs::ObsContext& context) {
  const obs::MetricsSnapshot metrics = context.metrics().Snapshot();
  EXPECT_EQ(metrics.Value("serve.batches_submitted"), stats.batches_submitted);
  EXPECT_EQ(metrics.Value("serve.batches_shed"), stats.batches_shed);
  EXPECT_EQ(metrics.Value("serve.batches_poisoned"), stats.batches_poisoned);
  EXPECT_EQ(metrics.Value("serve.clock_regressions"), stats.clock_regressions);
  EXPECT_EQ(metrics.Value("serve.epochs_ingested"), stats.epochs_ingested);
  EXPECT_EQ(metrics.Value("serve.generations_published"),
            stats.generations_published);
  EXPECT_EQ(metrics.Value("serve.queries"), stats.queries_served);
  EXPECT_EQ(metrics.Value("serve.state_snapshots_written"),
            stats.snapshots_written);
  EXPECT_EQ(metrics.Value("serve.health_transitions"),
            stats.health_transitions);
}

TEST(StreamingServiceTest, StatsMirrorTheServeMetrics) {
  const std::string state_path = FreshStatePath("stats_mirror");
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig config = TinyConfig(clock);
  config.state_path = state_path;
  config.max_queue_batches = 2;
  {
    obs::ObsContext context;
    config.obs = &context;
    auto created = StreamingMiningService::Create(config);
    ASSERT_TRUE(created.ok()) << created.status();
    StreamingMiningService& service = *created.value();
    service.SubmitBatch(Batch(0));
    ASSERT_TRUE(service.Step().ok());  // publishes
    EXPECT_EQ(service.Health().state, HealthState::kHealthy);
    EXPECT_EQ(service.SubmitBatch(Batch(0)).outcome,
              SubmitOutcome::kRejectedClockRegression);
    service.SubmitBatch(Batch(1));
    service.SubmitBatch(Unindexed(2));
    EXPECT_EQ(service.SubmitBatch(Batch(3)).outcome,
              SubmitOutcome::kAcceptedShedOldest);
    *clock += config.degraded_after_ms;  // healthy -> degraded
    ASSERT_TRUE(service.Drain().ok());   // poison, then a publish
    ASSERT_TRUE(service.WhatDependsOn("A").ok());
    ASSERT_TRUE(service.ImpactOf("A").ok());
    EXPECT_EQ(service.Health().state, HealthState::kHealthy);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.batches_submitted, 5);
    EXPECT_EQ(stats.batches_shed, 1);
    EXPECT_EQ(stats.batches_poisoned, 1);
    EXPECT_EQ(stats.clock_regressions, 1);
    EXPECT_EQ(stats.generations_published, 2);
    EXPECT_EQ(stats.queries_served, 2);
    EXPECT_EQ(stats.health_transitions, 3);
    ExpectStatsMirrorMetrics(stats, context);
  }
  // Destroy and Create again: the recovered service counts afresh, into
  // a fresh context.
  obs::ObsContext context;
  config.obs = &context;
  auto recovered = StreamingMiningService::Create(config);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  StreamingMiningService& service = *recovered.value();
  EXPECT_TRUE(service.recovered());
  EXPECT_EQ(service.SubmitBatch(Batch(3)).outcome,
            SubmitOutcome::kRejectedClockRegression);
  service.SubmitBatch(Batch(4));
  ASSERT_TRUE(service.Drain().ok());
  EXPECT_EQ(service.stats().epochs_ingested, 1);
  ExpectStatsMirrorMetrics(service.stats(), context);
  EXPECT_EQ(context.metrics().Snapshot().Value("serve.recoveries"), 1);
}

// An epoch's ingest and a generation's publish are timed stages: their
// events carry a full stage record.
TEST(StreamingServiceTest, IngestAndPublishEventsCarryStageRecords) {
  const std::regex stage_record(
      R"("dur_ns":\d+,"cpu_ns":\d+,"max_rss_kb":[1-9]\d*\}$)");
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig config = TinyConfig(clock);
  config.state_path = FreshStatePath("stage_records");
  obs::ObsContext context;
  config.obs = &context;
  auto created = StreamingMiningService::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  created.value()->SubmitBatch(Batch(0));
  ASSERT_TRUE(created.value()->Step().ok());
  int stages = 0;
  for (const std::string& line : context.journal().Tail(64)) {
    if (line.find("\"event\":\"epoch_ingested\"") == std::string::npos &&
        line.find("\"event\":\"generation_published\"") ==
            std::string::npos) {
      continue;
    }
    ++stages;
    EXPECT_TRUE(std::regex_search(line, stage_record)) << line;
  }
  EXPECT_EQ(stages, 2);
}

TEST(StreamingServiceTest, RecoveryRefusesAForeignConfigFingerprint) {
  const std::string state_path = FreshStatePath("config_mismatch");
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig config = TinyConfig(clock);
  config.state_path = state_path;
  {
    auto created = StreamingMiningService::Create(config);
    ASSERT_TRUE(created.ok()) << created.status();
    created.value()->SubmitBatch(Batch(0));
    ASSERT_TRUE(created.value()->Drain().ok());
  }
  ServiceConfig drifted = config;
  drifted.window.window_epochs = 8;
  auto refused = StreamingMiningService::Create(drifted);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  // The original config still recovers.
  auto recovered = StreamingMiningService::Create(config);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered.value()->recovered());
}

constexpr uint64_t kHostileCount = uint64_t{1} << 61;

/// Generation bytes laid out as SerializeGeneration writes them, with
/// the `hostile`-th count of the model set (0: L1 pairs, 1: L2 scores,
/// 2: citations) replaced by kHostileCount; 3 writes no hostile count.
std::string HandBuiltGeneration(int hostile) {
  SnapshotWriter w;
  w.BeginSection("generation");
  w.PutI64(1);     // number
  w.PutI64(0);     // window begin
  w.PutI64(1000);  // window end
  w.PutI64(1);     // epochs ingested
  w.PutU64(0);     // config fingerprint
  w.PutI64(0);     // model set: window begin, end and slots
  w.PutI64(1000);
  w.PutI64(4);
  // Writes count `which`; true once the hostile count is out, ending
  // the section with some padding.
  auto count = [&](int which) {
    w.PutU64(hostile == which ? kHostileCount : 0);
    if (hostile != which) return false;
    for (int i = 0; i < 8; ++i) w.PutU64(0);
    return true;
  };
  if (!count(0) && !count(1)) {
    core::EncodeSessionBuildStats({}, &w);
    w.PutI64(0);  // bigrams
    if (!count(2)) {
      w.PutI64(0);  // logs scanned
      w.PutI64(0);  // logs stopped
      // The l1, l2, l3 and combined models, then the tracker's.
      for (int i = 0; i < 5; ++i) core::EncodeDependencyModel({}, &w);
    }
  }
  w.EndSection();
  return std::move(w).Finish();
}

TEST(StreamingServiceTest, HostileGenerationCountsAreParseErrors) {
  for (int hostile = 0; hostile <= 3; ++hostile) {
    const std::string bytes = HandBuiltGeneration(hostile);
    auto parsed = ParseGeneration(bytes, {});
    if (hostile == 3) {
      EXPECT_TRUE(parsed.ok()) << parsed.status();
    } else {
      ASSERT_FALSE(parsed.ok()) << hostile;
      EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << hostile;
    }
  }
}

/// The service fields of a hand-built head; the defaults are valid.
struct HandBuiltHead {
  TimeMs watermark = 0;
  int64_t since_publish = 0;
  int64_t next_generation = 1;
};

/// Writes a CRC-valid state for `config` at `state_path`: a head with
/// the `head` service fields and a window retaining the epoch at 0 (no
/// names), and that epoch's file, whose payload after its begin and log
/// counts is `write_epoch`'s (by default: no pairs, logs or citations).
void WriteHandBuiltState(
    const ServiceConfig& config, const std::string& state_path,
    const HandBuiltHead& head,
    const std::function<void(SnapshotWriter*)>& write_epoch =
        [](SnapshotWriter* w) {
          for (int i = 0; i < 3; ++i) w->PutU64(0);
        }) {
  const uint64_t fingerprint =
      SlidingWindowMiner::Create(config.window).value().config_fingerprint();
  SnapshotWriter epoch;
  epoch.BeginSection("epoch");
  for (int i = 0; i < 4; ++i) epoch.PutI64(0);  // begin and log counts
  write_epoch(&epoch);
  epoch.EndSection();
  ASSERT_TRUE(
      WriteFileAtomic(state_path + ".epoch.0", std::move(epoch).Finish())
          .ok());

  SnapshotWriter w;
  w.BeginSection("service");
  w.PutU64(fingerprint);
  w.PutI64(head.watermark);
  w.PutI64(head.since_publish);
  w.PutI64(head.next_generation);
  w.EndSection();
  w.BeginSection("window");
  w.PutU64(fingerprint);
  w.PutI64(1);  // epochs ingested
  w.PutI64(0);  // epochs aged out
  w.PutU64(0);  // sources
  w.PutU64(0);  // users
  w.PutU64(1);  // epochs
  w.PutI64(0);
  w.EndSection();
  w.BeginSection("tracker");
  core::EncodeModelTracker(core::ModelTracker(config.tracker), &w);
  w.EndSection();
  ASSERT_TRUE(WriteFileAtomic(state_path, std::move(w).Finish()).ok());
}

TEST(StreamingServiceTest, HostileStateFileFailsCreateWithParseError) {
  const std::string state_path = FreshStatePath("hostile_state");
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig config = TinyConfig(clock);
  config.state_path = state_path;
  // A CRC-valid state whose one epoch file claims 2^61 L1 pairs.
  WriteHandBuiltState(config, state_path, {}, [](SnapshotWriter* w) {
    w->PutU64(kHostileCount);
    for (int i = 0; i < 8; ++i) w->PutU64(0);
  });
  auto created = StreamingMiningService::Create(config);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kParseError)
      << created.status();
}

TEST(StreamingServiceTest, HostileServiceCountersInStateAreParseErrors) {
  const std::string state_path = FreshStatePath("hostile_counters");
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig config = TinyConfig(clock);
  config.state_path = state_path;
  config.publish_every_epochs = 3;
  struct Case {
    const char* what;
    HandBuiltHead head;
  };
  for (const Case& hostile : {
           Case{"negative epochs since publish", {0, -1, 1}},
           Case{"publish overdue", {0, 3, 1}},
           Case{"truncates to a valid int", {0, int64_t{1} << 32, 1}},
           Case{"negative generation number", {0, 0, -5}},
           Case{"generation number zero", {0, 0, 0}},
           Case{"watermark past the newest epoch", {1000, 0, 1}},
       }) {
    WriteHandBuiltState(config, state_path, hostile.head);
    auto created = StreamingMiningService::Create(config);
    ASSERT_FALSE(created.ok()) << hostile.what;
    EXPECT_EQ(created.status().code(), StatusCode::kParseError)
        << hostile.what << ": " << created.status();
  }
  WriteHandBuiltState(config, state_path, {0, 2, 1});
  auto created = StreamingMiningService::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_TRUE(created.value()->recovered());
}

/// Names of the epoch files beside `state_path`, sorted.
std::vector<std::string> EpochFiles(const std::string& state_path) {
  const std::filesystem::path state(state_path);
  const std::string prefix = state.filename().string() + ".epoch.";
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(state.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Runs a fresh service over epochs [0, epochs) with state at
/// `state_path`.
void RunEpochs(const ServiceConfig& config, int epochs) {
  auto created = StreamingMiningService::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  for (int epoch = 0; epoch < epochs; ++epoch) {
    created.value()->SubmitBatch(Batch(epoch, {Rec(epoch * 1000 + 10, "A",
                                                   "u", "x"),
                                               Rec(epoch * 1000 + 20, "B",
                                                   "u", "y")}));
  }
  auto drained = created.value()->Drain();
  ASSERT_TRUE(drained.ok()) << drained.status();
}

TEST(StreamingServiceTest, PersistWritesTheHeadAndOneFilePerRetainedEpoch) {
  const std::string state_path = FreshStatePath("epoch_files");
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig config = TinyConfig(clock);
  config.state_path = state_path;
  RunEpochs(config, 6);
  // The 4-epoch window holds epochs 2..5; 0 and 1 were deleted as they
  // aged out.
  EXPECT_TRUE(std::filesystem::exists(state_path));
  EXPECT_EQ(EpochFiles(state_path),
            (std::vector<std::string>{
                "state.snapshot.epoch.2000", "state.snapshot.epoch.3000",
                "state.snapshot.epoch.4000", "state.snapshot.epoch.5000"}));
}

TEST(StreamingServiceTest, TornEpochFilePastTheWatermarkIsReingested) {
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig reference = TinyConfig(clock);
  reference.state_path = FreshStatePath("torn_reference");
  RunEpochs(reference, 4);
  const std::string epoch3 =
      ReadFileToString(reference.state_path + ".epoch.3000").value();

  // A crash after epoch 3's file was renamed into place (here: torn
  // anyway) but before the head moved past epoch 2.
  ServiceConfig config = TinyConfig(clock);
  config.state_path = FreshStatePath("torn_epoch");
  RunEpochs(config, 3);
  ASSERT_TRUE(WriteFileAtomic(config.state_path + ".epoch.3000",
                              epoch3.substr(0, epoch3.size() / 2))
                  .ok());
  auto recovered = StreamingMiningService::Create(config);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered.value()->recovered());
  EXPECT_FALSE(std::filesystem::exists(config.state_path + ".epoch.3000"));

  // The resubmitted epoch 3 is new to the head, so it re-ingests, and
  // every file ends up as the uninterrupted run wrote it.
  EXPECT_EQ(recovered.value()
                ->SubmitBatch(Batch(3, {Rec(3010, "A", "u", "x"),
                                        Rec(3020, "B", "u", "y")}))
                .outcome,
            SubmitOutcome::kAccepted);
  ASSERT_TRUE(recovered.value()->Drain().ok());
  // Reads file `name` beside the state at `run`'s state_path.
  auto read = [](const ServiceConfig& run, const std::string& name) {
    const std::filesystem::path dir =
        std::filesystem::path(run.state_path).parent_path();
    return ReadFileToString((dir / name).string()).value();
  };
  const std::vector<std::string> names = EpochFiles(reference.state_path);
  EXPECT_EQ(EpochFiles(config.state_path), names);
  for (const std::string& name : names) {
    EXPECT_EQ(read(config, name), read(reference, name)) << name;
  }
  EXPECT_EQ(ReadFileToString(config.state_path).value(),
            ReadFileToString(reference.state_path).value());
}

TEST(StreamingServiceTest, StrayEpochFilesWithoutAHeadAreDeletedUnread) {
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig earlier = TinyConfig(clock);
  earlier.state_path = FreshStatePath("stray_earlier");
  RunEpochs(earlier, 2);

  // An earlier run's epoch files — one valid, one garbage — but no head.
  ServiceConfig config = TinyConfig(clock);
  config.state_path = FreshStatePath("stray_epochs");
  std::filesystem::copy_file(earlier.state_path + ".epoch.1000",
                             config.state_path + ".epoch.1000");
  ASSERT_TRUE(
      WriteFileAtomic(config.state_path + ".epoch.-5000", "garbage").ok());
  // Files that only look alike are not the service's to delete.
  const std::filesystem::path dir =
      std::filesystem::path(config.state_path).parent_path();
  for (const char* other : {"state.snapshot.epoch.12x", "other.epoch.0"}) {
    ASSERT_TRUE(WriteFileAtomic((dir / other).string(), "keep").ok());
  }

  auto created = StreamingMiningService::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_FALSE(created.value()->recovered());
  EXPECT_EQ(created.value()->CurrentModel(), nullptr);
  EXPECT_EQ(EpochFiles(config.state_path),
            (std::vector<std::string>{"state.snapshot.epoch.12x"}));
  EXPECT_TRUE(std::filesystem::exists(dir / "other.epoch.0"));

  // The window starts empty: epoch 0 is accepted and the model holds
  // nothing from the stray epoch 1.
  created.value()->SubmitBatch(Batch(0));
  ASSERT_TRUE(created.value()->Drain().ok());
  EXPECT_TRUE(created.value()->CurrentModel()->models.l1_pairs.empty());
  EXPECT_EQ(created.value()->CurrentModel()->epochs_ingested, 1);
}

TEST(StreamingServiceTest, AgedOutEpochFileLeftByACrashIsRemovedAtRecovery) {
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig config = TinyConfig(clock);
  config.state_path = FreshStatePath("aged_out");
  RunEpochs(config, 4);
  const std::string epoch0 =
      ReadFileToString(config.state_path + ".epoch.0").value();
  // Epoch 4 ages epoch 0 out; put its file back, as a crash between the
  // head write and the delete would have left it.
  {
    auto created = StreamingMiningService::Create(config);
    ASSERT_TRUE(created.ok()) << created.status();
    created.value()->SubmitBatch(Batch(4));
    ASSERT_TRUE(created.value()->Drain().ok());
  }
  ASSERT_FALSE(std::filesystem::exists(config.state_path + ".epoch.0"));
  ASSERT_TRUE(WriteFileAtomic(config.state_path + ".epoch.0", epoch0).ok());

  auto recovered = StreamingMiningService::Create(config);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered.value()->recovered());
  EXPECT_EQ(recovered.value()->CurrentModel()->models.window_begin, 1000);
  EXPECT_EQ(EpochFiles(config.state_path),
            (std::vector<std::string>{
                "state.snapshot.epoch.1000", "state.snapshot.epoch.2000",
                "state.snapshot.epoch.3000", "state.snapshot.epoch.4000"}));
}

TEST(StreamingServiceTest, MissingOrDamagedListedEpochFileFailsCreate) {
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig config = TinyConfig(clock);
  config.state_path = FreshStatePath("listed_epoch");
  RunEpochs(config, 3);
  const std::string path = config.state_path + ".epoch.1000";
  const std::string bytes = ReadFileToString(path).value();

  std::string damaged = bytes;
  damaged[damaged.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(path, damaged).ok());
  auto created = StreamingMiningService::Create(config);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kParseError)
      << created.status();

  std::filesystem::remove(path);
  created = StreamingMiningService::Create(config);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kNotFound)
      << created.status();
  EXPECT_NE(created.status().message().find("epoch.1000"), std::string::npos)
      << created.status();

  // A failed recovery deletes nothing: restoring the file recovers.
  EXPECT_EQ(EpochFiles(config.state_path).size(), 2u);
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  created = StreamingMiningService::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_TRUE(created.value()->recovered());
}

}  // namespace
}  // namespace logmine::serve
