// Chaos acceptance of the streaming mining service: across a seed
// matrix of randomized fault plans the service must never serve a torn
// or config-mismatched generation, shed load instead of erroring while
// overloaded, report a health state consistent with its publish age,
// and recover from an injected crash to the byte-identical state of a
// run that never crashed.

#include <gtest/gtest.h>

#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/dataset.h"
#include "log/filter.h"
#include "serve/streaming_service.h"
#include "simulation/service_faults.h"
#include "util/rng.h"
#include "util/snapshot.h"

namespace logmine::serve {
namespace {

eval::Dataset BuildSeededDataset(uint64_t seed) {
  eval::DatasetConfig config;
  config.scenario.seed = seed;
  config.simulation.seed = seed * 31 + 7;
  config.simulation.num_days = 1;
  config.simulation.scale = 0.04;
  auto built = eval::BuildDataset(config);
  EXPECT_TRUE(built.ok()) << built.status();
  return std::move(built).value();
}

std::string FreshStatePath(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("logmine_chaos_" + name);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir);
  return (dir / "state.snapshot").string();
}

/// Every file of the state at `state_path` — the head and each epoch
/// file — by name.
std::map<std::string, std::string> StateFiles(const std::string& state_path) {
  const std::filesystem::path state(state_path);
  const std::string head = state.filename().string();
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(state.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name != head && name.rfind(head + ".epoch.", 0) != 0) continue;
    auto bytes = ReadFileToString(entry.path().string());
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    files[name] = std::move(bytes).value();
  }
  return files;
}

ServiceConfig ChaosConfig(const eval::Dataset& dataset,
                          std::shared_ptr<int64_t> clock,
                          std::string state_path) {
  ServiceConfig config;
  config.window.epoch_length = kMillisPerHour;
  config.window.window_epochs = 6;
  config.window.l1.minlogs = 6;  // scaled-down corpus
  config.window.vocabulary = dataset.vocabulary;
  config.entry_owner = dataset.entry_owner;
  config.max_queue_batches = 3;
  config.publish_every_epochs = 1;
  config.degraded_after_ms = 3'000;
  config.stale_after_ms = 8'000;
  config.state_path = std::move(state_path);
  config.now_ms = [clock] { return *clock; };
  return config;
}

/// A copy of `batch` for one more submission: batches are move-only,
/// and an epoch's slice of its own records is the batch again.
EpochBatch Clone(const EpochBatch& batch) {
  return {batch.begin, batch.end,
          SliceByTime(batch.records, batch.begin, batch.end)};
}

/// Drives one service through a day of batches under a seeded fault
/// plan, shadowing the queue so every externally visible effect —
/// queue depth, sheds, the ingest watermark, health — can be checked
/// against first principles at every step.
class ChaosDriver {
 public:
  ChaosDriver(const eval::Dataset& dataset, ServiceConfig config,
              const sim::ServiceFaultInjector& injector,
              std::shared_ptr<int64_t> clock)
      : config_(std::move(config)),
        injector_(injector),
        clock_(std::move(clock)) {
    auto batches =
        SplitIntoEpochBatches(dataset.store, dataset.day_begin(0),
                              dataset.day_end(0), kMillisPerHour);
    EXPECT_TRUE(batches.ok()) << batches.status();
    batches_ = std::move(batches).value();
    config_.faults = &injector_;
    auto created = StreamingMiningService::Create(config_);
    EXPECT_TRUE(created.ok()) << created.status();
    service_ = std::move(created).value();
  }

  StreamingMiningService& service() { return *service_; }
  TimeMs ingest_watermark() const { return ingest_watermark_; }
  int64_t crashes() const { return crashes_; }
  size_t shadow_depth() const { return shadow_.size(); }

  void Submit(const EpochBatch& batch) {
    const int64_t index = submit_calls_++;
    const bool injected = injector_.OnEpoch(index, 1) ==
                          sim::ServiceFault::kClockRegression;
    const bool genuine = batch.begin <= submit_watermark_;
    const SubmitResult result = service_->SubmitBatch(Clone(batch));
    if (injected || genuine) {
      EXPECT_EQ(result.outcome, SubmitOutcome::kRejectedClockRegression)
          << "submission " << index;
    } else {
      submit_watermark_ = batch.begin;
      if (result.outcome == SubmitOutcome::kAcceptedShedOldest) {
        ASSERT_FALSE(shadow_.empty());
        shadow_.pop_front();
      } else {
        EXPECT_EQ(result.outcome, SubmitOutcome::kAccepted)
            << "submission " << index;
      }
      shadow_.push_back(batch.begin);
    }
    EXPECT_EQ(service_->queue_depth(), shadow_.size());
  }

  /// One Step, absorbing an injected crash by rebuilding the service
  /// from its snapshot and blindly resubmitting the whole day (the
  /// feeder has no memory of what was already ingested — the watermark
  /// guard must make that safe). Returns false once idle.
  bool StepOnce() {
    auto step = service_->Step();
    if (!step.ok()) {
      EXPECT_EQ(step.status().code(), StatusCode::kInternal)
          << step.status();
      ++crashes_;
      // The dying step ingested and persisted the queue head; the rest
      // of the queue died with the process.
      if (shadow_.empty()) {
        ADD_FAILURE() << "crash with nothing queued";
        return false;
      }
      ingest_watermark_ = shadow_.front();
      shadow_.clear();
      service_.reset();
      auto rebuilt = StreamingMiningService::Create(config_);
      if (!rebuilt.ok()) {
        ADD_FAILURE() << "rebuild after crash: " << rebuilt.status();
        return false;
      }
      service_ = std::move(rebuilt).value();
      EXPECT_TRUE(service_->recovered());
      auto model = service_->CurrentModel();
      if (model == nullptr) {
        ADD_FAILURE() << "recovery served no generation";
        return false;
      }
      // Recovery re-serves the generation the crash tore mid-publish.
      EXPECT_EQ(model->models.window_end,
                ingest_watermark_ + kMillisPerHour);
      submit_calls_ = 0;
      submit_watermark_ = ingest_watermark_;
      for (const EpochBatch& batch : batches_) Submit(batch);
      return true;
    }
    switch (step.value()) {
      case StepOutcome::kIdle:
        return false;
      case StepOutcome::kStalled:
        return true;  // the attempt still consumed stall budget
      case StepOutcome::kIngested:
      case StepOutcome::kPublished:
        if (shadow_.empty()) {
          ADD_FAILURE() << "ingest with nothing queued";
          return false;
        }
        ingest_watermark_ = shadow_.front();
        shadow_.pop_front();
        return true;
      case StepOutcome::kPoisoned:
        if (shadow_.empty()) {
          ADD_FAILURE() << "poison with nothing queued";
          return false;
        }
        shadow_.pop_front();  // quarantined, never ingested
        return true;
    }
    return true;
  }

  /// The torn-model check: whatever generation a reader can hold right
  /// now must prove its own integrity and carry this config's
  /// fingerprint.
  void CheckModel() {
    auto model = service_->CurrentModel();
    if (model == nullptr) return;
    EXPECT_EQ(model->config_fingerprint, service_->config_fingerprint());
    if (model->number == checked_generation_) return;
    checked_generation_ = model->number;
    EXPECT_EQ(model->self_crc, Crc32(SerializeGeneration(*model)))
        << "generation " << model->number;
  }

  /// Health must agree with the publish age it itself reports.
  void CheckHealth() {
    const HealthReport report = service_->Health();
    if (report.generation == 0) {
      EXPECT_EQ(report.state, HealthState::kStarting);
      return;
    }
    const int64_t age = report.ms_since_publish;
    ASSERT_GE(age, 0);
    const HealthState expected =
        age < config_.degraded_after_ms  ? HealthState::kHealthy
        : age < config_.stale_after_ms   ? HealthState::kDegraded
                                         : HealthState::kStaleServing;
    EXPECT_EQ(report.state, expected) << "publish age " << age << " ms";
  }

  const std::vector<EpochBatch>& batches() const { return batches_; }

 private:
  ServiceConfig config_;
  const sim::ServiceFaultInjector& injector_;
  std::shared_ptr<int64_t> clock_;
  std::vector<EpochBatch> batches_;
  std::unique_ptr<StreamingMiningService> service_;
  std::deque<TimeMs> shadow_;       ///< begins of the queued batches
  int64_t submit_calls_ = 0;        ///< per service incarnation
  TimeMs submit_watermark_ = INT64_MIN;
  TimeMs ingest_watermark_ = INT64_MIN;
  int64_t checked_generation_ = 0;
  int64_t crashes_ = 0;
};

class StreamingChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingChaosTest, ServiceSurvivesARandomFaultPlan) {
  const uint64_t seed = GetParam();
  const eval::Dataset dataset = BuildSeededDataset(seed);
  Rng rng(seed * 977 + 11);
  sim::ServiceFaultPlanOptions fault_options;
  fault_options.max_faults = 4;
  fault_options.max_stall_steps = 2;
  fault_options.slow_ms = 30;
  const sim::ServiceFaultInjector injector(RandomServiceFaultPlan(
      &rng, /*num_epochs=*/24, /*num_queries=*/12, fault_options));

  auto clock = std::make_shared<int64_t>(0);
  ChaosDriver driver(
      dataset,
      ChaosConfig(dataset, clock,
                  FreshStatePath("sweep_" + std::to_string(seed))),
      injector, clock);
  if (::testing::Test::HasFatalFailure()) return;

  const std::string target = dataset.entry_owner.empty()
                                 ? std::string("app")
                                 : dataset.entry_owner.begin()->second;
  int64_t queries_issued = 0;
  for (size_t i = 0; i < driver.batches().size(); ++i) {
    driver.Submit(driver.batches()[i]);
    *clock += 500;
    driver.StepOnce();
    if (::testing::Test::HasFatalFailure()) return;
    driver.CheckModel();
    driver.CheckHealth();
    if (i % 2 == 0) {
      // A tight deadline so an armed slow consumer trips it; whatever
      // happens, a query never surfaces anything but these codes.
      QueryOptions options;
      options.deadline_ms = 20;
      auto result =
          driver.service().WhatDependsOn(target, options);
      ++queries_issued;
      const StatusCode code = result.status().code();
      EXPECT_TRUE(code == StatusCode::kOk ||
                  code == StatusCode::kDeadlineExceeded ||
                  code == StatusCode::kCancelled ||
                  code == StatusCode::kFailedPrecondition)
          << result.status();
    }
  }

  // Drain what chaos left behind; stalls expire, so this terminates.
  int guard = 0;
  while (driver.StepOnce() && ++guard < 500) {
    if (::testing::Test::HasFatalFailure()) return;
    driver.CheckModel();
  }
  ASSERT_LT(guard, 500) << "drain did not converge";

  EXPECT_EQ(driver.service().queue_depth(), 0u);
  EXPECT_EQ(driver.shadow_depth(), 0u);
  auto model = driver.service().CurrentModel();
  ASSERT_NE(model, nullptr);
  // The served window ends exactly at the newest ingested hour.
  EXPECT_EQ(model->models.window_end,
            driver.ingest_watermark() + kMillisPerHour);
  driver.CheckModel();
  driver.CheckHealth();
  EXPECT_GE(queries_issued, 12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingChaosTest,
                         ::testing::Values(3u, 11u, 42u, 97u, 1009u,
                                           52711u));

TEST(StreamingChaosIdentityTest, CrashRecoveryIsByteIdenticalToCleanRun) {
  const eval::Dataset dataset = BuildSeededDataset(7);
  auto clock = std::make_shared<int64_t>(0);
  auto batches = SplitIntoEpochBatches(dataset.store, dataset.day_begin(0),
                                       dataset.day_end(0), kMillisPerHour);
  ASSERT_TRUE(batches.ok()) << batches.status();

  // The reference: the same day, never interrupted.
  const std::string reference_path = FreshStatePath("identity_reference");
  {
    ServiceConfig config = ChaosConfig(dataset, clock, reference_path);
    config.max_queue_batches = 25;
    auto created = StreamingMiningService::Create(config);
    ASSERT_TRUE(created.ok()) << created.status();
    for (const EpochBatch& batch : batches.value()) {
      created.value()->SubmitBatch(Clone(batch));
    }
    ASSERT_TRUE(created.value()->Drain().ok());
  }
  const std::map<std::string, std::string> reference_state =
      StateFiles(reference_path);
  // The head plus one file per retained epoch of the 6-epoch window.
  ASSERT_EQ(reference_state.size(), 7u);

  ServiceConfig reference_config =
      ChaosConfig(dataset, clock, reference_path);
  auto reference = StreamingMiningService::Create(reference_config);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const std::string reference_generation =
      SerializeGeneration(*reference.value()->CurrentModel());

  for (const int64_t crash_index : {int64_t{2}, int64_t{7}, int64_t{17}}) {
    SCOPED_TRACE("crash at epoch " + std::to_string(crash_index));
    sim::ServiceFaultPlan plan;
    plan.faults.push_back(
        {crash_index, sim::ServiceFault::kCrashMidPublish});
    const sim::ServiceFaultInjector injector(plan);
    const std::string state_path =
        FreshStatePath("identity_" + std::to_string(crash_index));
    ServiceConfig config = ChaosConfig(dataset, clock, state_path);
    config.max_queue_batches = 25;
    config.faults = &injector;

    auto created = StreamingMiningService::Create(config);
    ASSERT_TRUE(created.ok()) << created.status();
    for (const EpochBatch& batch : batches.value()) {
      created.value()->SubmitBatch(Clone(batch));
    }
    auto drained = created.value()->Drain();
    ASSERT_FALSE(drained.ok());  // the injected death
    EXPECT_EQ(drained.status().code(), StatusCode::kInternal);
    created.value().reset();

    // Rebuild and blindly replay the whole day; already-ingested hours
    // bounce off the recovered watermark. The resubmitted epochs land
    // on different submission indices, so the armed crash never
    // re-fires — the fault has cleared.
    auto recovered = StreamingMiningService::Create(config);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_TRUE(recovered.value()->recovered());
    for (const EpochBatch& batch : batches.value()) {
      recovered.value()->SubmitBatch(Clone(batch));
    }
    ASSERT_TRUE(recovered.value()->Drain().ok());

    // Identity: the head, every retained epoch file and the served
    // generation are the very bytes of the run that never crashed.
    EXPECT_EQ(StateFiles(state_path), reference_state);
    ASSERT_NE(recovered.value()->CurrentModel(), nullptr);
    EXPECT_EQ(SerializeGeneration(*recovered.value()->CurrentModel()),
              reference_generation);
  }
}

TEST(StreamingChaosOverloadTest, SustainedOverloadShedsButStillPublishes) {
  const eval::Dataset dataset = BuildSeededDataset(19);
  auto clock = std::make_shared<int64_t>(0);
  ServiceConfig config = ChaosConfig(dataset, clock, /*state_path=*/"");
  config.max_queue_batches = 2;
  auto created = StreamingMiningService::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  StreamingMiningService& service = *created.value();

  auto batches = SplitIntoEpochBatches(dataset.store, dataset.day_begin(0),
                                       dataset.day_end(0), kMillisPerHour);
  ASSERT_TRUE(batches.ok()) << batches.status();
  // A consumer that never keeps up: the whole day arrives before a
  // single step runs. Nothing errors; the queue holds the 2 freshest
  // hours and everything older was shed.
  int sheds = 0;
  for (EpochBatch& batch : batches.value()) {
    const SubmitResult result = service.SubmitBatch(std::move(batch));
    ASSERT_NE(result.outcome, SubmitOutcome::kRejectedClockRegression);
    if (result.outcome == SubmitOutcome::kAcceptedShedOldest) ++sheds;
  }
  EXPECT_EQ(sheds, 22);
  EXPECT_EQ(service.stats().batches_shed, 22);
  EXPECT_EQ(service.queue_depth(), 2u);

  auto drained = service.Drain();
  ASSERT_TRUE(drained.ok()) << drained.status();
  EXPECT_EQ(drained.value(), 2);
  EXPECT_EQ(service.stats().epochs_ingested, 2);
  auto model = service.CurrentModel();
  ASSERT_NE(model, nullptr);
  // The freshest data won through: the model covers the end of the day.
  EXPECT_EQ(model->models.window_end, dataset.day_end(0));
  EXPECT_EQ(service.Health().state, HealthState::kHealthy);
}

}  // namespace
}  // namespace logmine::serve
