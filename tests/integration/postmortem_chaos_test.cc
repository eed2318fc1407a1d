// Dump-on-failure acceptance: every failure class the observability
// layer promises to capture — a degraded sweep, a quarantined batch, a
// health-ladder regression — must leave exactly one parseable
// postmortem bundle behind, carrying the run id, the trigger span, the
// config fingerprint of the run that failed, and enough journal tail to
// reconstruct what happened. Plus the live half of the contract: the
// introspection socket of a running service answers HEALTH / METRICS /
// JOURNAL TAIL with the service's real state.

#include <unistd.h>

#include <filesystem>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/serialization.h"
#include "eval/dataset.h"
#include "eval/shard_supervisor.h"
#include "obs/introspect.h"
#include "obs/obs.h"
#include "obs/postmortem.h"
#include "serve/streaming_service.h"

namespace logmine {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<std::string> BundlePaths(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".lmpm") {
      paths.push_back(entry.path().string());
    }
  }
  return paths;
}

std::string JoinedTail(const obs::PostmortemBundle& bundle) {
  std::string joined;
  for (const std::string& line : bundle.journal_tail) {
    joined += line;
    joined += '\n';
  }
  return joined;
}

TEST(PostmortemChaosTest, DegradedSweepCapturesABundle) {
  eval::DatasetConfig dataset_config;
  dataset_config.simulation.num_days = 1;
  dataset_config.simulation.scale = 0.1;
  auto dataset = eval::BuildDataset(dataset_config);
  ASSERT_TRUE(dataset.ok()) << dataset.status();

  core::L1Config l1;
  l1.minlogs = 8;
  l1.slot_length = 2 * kMillisPerHour;

  // One permanently broken shard: the sweep degrades instead of failing
  // and must dump exactly one bundle on the way out.
  const eval::ShardMineFn l1_mine =
      eval::MakeL1ShardMiner(dataset.value(), l1, /*num_ranges=*/2);
  const eval::ShardMineFn broken =
      [&l1_mine](core::ShardId shard) -> Result<eval::ShardOutput> {
    if (shard == core::ShardId{0, 1}) return Status::Internal("always down");
    return l1_mine(shard);
  };

  obs::ObsContext context;
  eval::ShardSupervisorConfig config;
  config.retry.initial_backoff_ms = 1;
  config.retry.max_backoff_ms = 2;
  config.obs = &context;
  config.postmortem.dir = FreshDir("pm_sweep");

  auto swept = eval::RunShardedSweep(
      eval::ShardGrid{1, 2}, broken, config,
      eval::SweepStateHash(dataset.value(), eval::Technique::kL1,
                           core::ConfigFingerprint(l1), 2));
  ASSERT_TRUE(swept.ok()) << swept.status();
  ASSERT_EQ(swept.value().outcome, eval::SweepOutcome::kDegraded);

  const std::vector<std::string> bundles =
      BundlePaths(config.postmortem.dir);
  ASSERT_EQ(bundles.size(), 1u);
  auto bundle = obs::ReadPostmortemBundle(bundles[0]);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ(bundle.value().reason, "sweep_degraded");
  EXPECT_EQ(bundle.value().run_id, context.journal().run_id());
  EXPECT_EQ(bundle.value().trigger_span.rfind("sweep-", 0), 0u);
  // The fingerprint is the sweep's own state hash, so the bundle can be
  // matched to the exact config that degraded.
  EXPECT_EQ(bundle.value().config_fingerprint, swept.value().state_hash);
  // The tail holds the forensic trail: the poisoned shard and the
  // degraded sweep end were journaled before the capture.
  const std::string tail = JoinedTail(bundle.value());
  EXPECT_NE(tail.find("shard_poisoned"), std::string::npos);
  EXPECT_NE(tail.find("sweep_end"), std::string::npos);
  EXPECT_NE(bundle.value().metrics_json.find("sweep"), std::string::npos);
}

eval::Dataset ServeDataset(uint64_t seed) {
  eval::DatasetConfig config;
  config.scenario.seed = seed;
  config.simulation.seed = seed * 31 + 7;
  config.simulation.num_days = 1;
  config.simulation.scale = 0.04;
  auto built = eval::BuildDataset(config);
  EXPECT_TRUE(built.ok()) << built.status();
  return std::move(built).value();
}

serve::ServiceConfig ServeConfig(const eval::Dataset& dataset,
                                 std::shared_ptr<int64_t> clock,
                                 obs::ObsContext* context) {
  serve::ServiceConfig config;
  config.window.epoch_length = kMillisPerHour;
  config.window.window_epochs = 6;
  config.window.l1.minlogs = 6;
  config.window.vocabulary = dataset.vocabulary;
  config.entry_owner = dataset.entry_owner;
  config.max_queue_batches = 25;
  config.publish_every_epochs = 1;
  config.degraded_after_ms = 3'000;
  config.stale_after_ms = 8'000;
  config.now_ms = [clock] { return *clock; };
  config.obs = context;
  return config;
}

TEST(PostmortemChaosTest, QuarantinedBatchCapturesABundle) {
  const eval::Dataset dataset = ServeDataset(5);
  auto clock = std::make_shared<int64_t>(0);
  obs::ObsContext context;
  serve::ServiceConfig config = ServeConfig(dataset, clock, &context);
  config.postmortem.dir = FreshDir("pm_poison");

  auto created = serve::StreamingMiningService::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  auto batches = serve::SplitIntoEpochBatches(
      dataset.store, dataset.day_begin(0), dataset.day_end(0),
      kMillisPerHour);
  ASSERT_TRUE(batches.ok()) << batches.status();
  // Hour 2 arrives malformed: its records were never indexed.
  batches.value()[2].records = LogStore();
  for (serve::EpochBatch& batch : batches.value()) {
    created.value()->SubmitBatch(std::move(batch));
  }
  ASSERT_TRUE(created.value()->Drain().ok());
  EXPECT_EQ(created.value()->stats().batches_poisoned, 1);

  const std::vector<std::string> bundles =
      BundlePaths(config.postmortem.dir);
  ASSERT_EQ(bundles.size(), 1u);
  auto bundle = obs::ReadPostmortemBundle(bundles[0]);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ(bundle.value().reason, "batch_quarantined");
  // The trigger names the poisoned epoch's span under the serve root.
  EXPECT_EQ(bundle.value().trigger_span.rfind("serve-", 0), 0u);
  EXPECT_NE(bundle.value().trigger_span.find("/e"), std::string::npos);
  EXPECT_EQ(bundle.value().config_fingerprint,
            created.value()->config_fingerprint());
  EXPECT_NE(JoinedTail(bundle.value()).find("batch_quarantined"),
            std::string::npos);
}

TEST(PostmortemChaosTest, HealthRegressionCapturesABundle) {
  const eval::Dataset dataset = ServeDataset(9);
  auto clock = std::make_shared<int64_t>(0);
  obs::ObsContext context;
  serve::ServiceConfig config = ServeConfig(dataset, clock, &context);
  config.postmortem.dir = FreshDir("pm_health");

  auto created = serve::StreamingMiningService::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  serve::StreamingMiningService& service = *created.value();
  auto batches = serve::SplitIntoEpochBatches(
      dataset.store, dataset.day_begin(0), dataset.day_end(0),
      kMillisPerHour);
  ASSERT_TRUE(batches.ok()) << batches.status();
  service.SubmitBatch(std::move(batches.value().front()));
  ASSERT_TRUE(service.Drain().ok());
  ASSERT_EQ(service.Health().state, serve::HealthState::kHealthy);
  EXPECT_TRUE(BundlePaths(config.postmortem.dir).empty());

  // No publish while the clock runs past the degraded threshold: the
  // next step observes healthy -> degraded and dumps.
  *clock += config.degraded_after_ms + 1'000;
  ASSERT_TRUE(service.Step().ok());
  EXPECT_EQ(service.Health().state, serve::HealthState::kDegraded);

  const std::vector<std::string> bundles =
      BundlePaths(config.postmortem.dir);
  ASSERT_EQ(bundles.size(), 1u);
  auto bundle = obs::ReadPostmortemBundle(bundles[0]);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ(bundle.value().reason, "health_regression");
  EXPECT_EQ(bundle.value().config_fingerprint,
            service.config_fingerprint());
  EXPECT_NE(JoinedTail(bundle.value()).find("health_transition"),
            std::string::npos);

  // A steady degraded state is not a regression: stepping again while
  // still degraded must not dump a second bundle.
  ASSERT_TRUE(service.Step().ok());
  EXPECT_EQ(BundlePaths(config.postmortem.dir).size(), 1u);
}

TEST(PostmortemChaosTest, IntrospectionSocketServesTheLiveService) {
  const eval::Dataset dataset = ServeDataset(13);
  auto clock = std::make_shared<int64_t>(0);
  obs::ObsContext context;
  serve::ServiceConfig config = ServeConfig(dataset, clock, &context);
  config.introspection_socket =
      "/tmp/logmine_pm_introspect_" + std::to_string(::getpid()) + ".sock";

  auto created = serve::StreamingMiningService::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  auto batches = serve::SplitIntoEpochBatches(
      dataset.store, dataset.day_begin(0), dataset.day_end(0),
      kMillisPerHour);
  ASSERT_TRUE(batches.ok()) << batches.status();
  for (serve::EpochBatch& batch : batches.value()) {
    created.value()->SubmitBatch(std::move(batch));
  }
  ASSERT_TRUE(created.value()->Drain().ok());

  // HEALTH reflects the service's own report, not a canned string.
  auto health = obs::IntrospectionQuery(config.introspection_socket,
                                        "HEALTH");
  ASSERT_TRUE(health.ok()) << health.status().message();
  EXPECT_EQ(health.value().rfind("healthy generation=", 0), 0u);
  EXPECT_NE(health.value().find("queue_depth=0"), std::string::npos);

  // METRICS is the OpenMetrics rendering of the live registry: the
  // drain above ingested epochs, so serve counters are non-zero.
  auto metrics = obs::IntrospectionQuery(config.introspection_socket,
                                         "METRICS");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().find("logmine_serve_ingest_ns"),
            std::string::npos);

  // STATUSZ carries the run id that stamps every journal line.
  auto statusz = obs::IntrospectionQuery(config.introspection_socket,
                                         "STATUSZ");
  ASSERT_TRUE(statusz.ok());
  EXPECT_NE(statusz.value().find(context.journal().run_id()),
            std::string::npos);

  // The journal tail shows the lifecycle the drain just journaled.
  auto tail = obs::IntrospectionQuery(config.introspection_socket,
                                      "JOURNAL TAIL 200");
  ASSERT_TRUE(tail.ok());
  EXPECT_NE(tail.value().find("service_start"), std::string::npos);
  EXPECT_NE(tail.value().find("generation_published"), std::string::npos);

  // Tearing down the service stops the server and removes the socket.
  created.value().reset();
  EXPECT_NE(::access(config.introspection_socket.c_str(), F_OK), 0);
}

}  // namespace
}  // namespace logmine
