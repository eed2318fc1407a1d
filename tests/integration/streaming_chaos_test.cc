// Chaos acceptance of the streaming mining service: across a seed
// matrix of randomized fault plans — each fault a real input: a
// malformed batch, an hour submitted again, a consumer that stops
// stepping while the clock runs, a process destroyed after a step —
// the service must never serve a torn or config-mismatched generation,
// shed load instead of erroring while overloaded, report a health state
// consistent with its publish age, and recover from a crash to the
// byte-identical state of a run that never crashed.

#include <gtest/gtest.h>

#include <algorithm>
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

/// What happens around one hour of the chaos day.
enum class HourFault {
  kNone,
  kPoison,   ///< the hour arrives malformed (its store never indexed)
  kReplay,   ///< the hour is submitted a second time
  kBacklog,  ///< the consumer skips its step while the clock runs on
  kCrash,    ///< the process is destroyed after the hour's step
};

/// Draws up to `max_faults` faulty hours in [1, hours) from `rng`; a
/// backlog covers 3 consecutive hours, enough to shed and to go stale.
std::vector<HourFault> RandomHourFaults(Rng* rng, size_t hours,
                                        int max_faults) {
  std::vector<HourFault> plan(hours, HourFault::kNone);
  const int64_t faults = rng->UniformInt(1, max_faults);
  for (int64_t f = 0; f < faults; ++f) {
    const auto hour =
        static_cast<size_t>(rng->UniformInt(1, static_cast<int64_t>(hours) - 1));
    const auto fault = static_cast<HourFault>(rng->UniformInt(1, 4));
    const size_t span = fault == HourFault::kBacklog ? 3 : 1;
    for (size_t h = hour; h < std::min(hours, hour + span); ++h) {
      plan[h] = fault;
    }
  }
  return plan;
}

/// Drives one service through a day of batches, shadowing the queue so
/// every externally visible effect — queue depth, sheds, quarantines,
/// the ingest watermark, health — can be checked against first
/// principles at every step.
class ChaosDriver {
 public:
  ChaosDriver(const eval::Dataset& dataset, ServiceConfig config)
      : config_(std::move(config)) {
    auto batches =
        SplitIntoEpochBatches(dataset.store, dataset.day_begin(0),
                              dataset.day_end(0), kMillisPerHour);
    EXPECT_TRUE(batches.ok()) << batches.status();
    batches_ = std::move(batches).value();
    auto created = StreamingMiningService::Create(config_);
    EXPECT_TRUE(created.ok()) << created.status();
    service_ = std::move(created).value();
  }

  StreamingMiningService& service() { return *service_; }
  TimeMs ingest_watermark() const { return ingest_watermark_; }
  int64_t crashes() const { return crashes_; }
  size_t shadow_depth() const { return shadow_.size(); }

  /// Submits `batch`, or — when `poison` — a batch of the same hour whose
  /// store was never indexed.
  void Submit(const EpochBatch& batch, bool poison = false) {
    const bool regressed = batch.begin <= submit_watermark_;
    const SubmitResult result = service_->SubmitBatch(
        poison ? EpochBatch{batch.begin, batch.end, LogStore()}
               : Clone(batch));
    if (regressed) {
      EXPECT_EQ(result.outcome, SubmitOutcome::kRejectedClockRegression)
          << "hour at " << batch.begin;
    } else {
      submit_watermark_ = batch.begin;
      if (result.outcome == SubmitOutcome::kAcceptedShedOldest) {
        ASSERT_FALSE(shadow_.empty());
        shadow_.pop_front();
      } else {
        EXPECT_EQ(result.outcome, SubmitOutcome::kAccepted)
            << "hour at " << batch.begin;
      }
      shadow_.push_back({batch.begin, poison});
    }
    EXPECT_EQ(service_->queue_depth(), shadow_.size());
  }

  /// One Step; returns false once idle.
  bool StepOnce() {
    auto step = service_->Step();
    if (!step.ok()) {
      ADD_FAILURE() << step.status();
      return false;
    }
    if (step.value() == StepOutcome::kIdle) {
      EXPECT_TRUE(shadow_.empty());
      return false;
    }
    if (shadow_.empty()) {
      ADD_FAILURE() << "a step with nothing queued";
      return false;
    }
    const Queued front = shadow_.front();
    shadow_.pop_front();
    if (front.poison) {
      EXPECT_EQ(step.value(), StepOutcome::kPoisoned) << front.begin;
    } else {
      EXPECT_NE(step.value(), StepOutcome::kPoisoned) << front.begin;
      ingest_watermark_ = front.begin;
    }
    return true;
  }

  /// The process dies right after its last Step: destroy the service,
  /// rebuild it from its state files and blindly resubmit the whole day
  /// (the feeder has no memory of what was already ingested — the
  /// watermark guard must make that safe). The queue died with it.
  void Crash() {
    ++crashes_;
    service_.reset();
    shadow_.clear();
    auto rebuilt = StreamingMiningService::Create(config_);
    ASSERT_TRUE(rebuilt.ok()) << "rebuild after crash: " << rebuilt.status();
    service_ = std::move(rebuilt).value();
    auto model = service_->CurrentModel();
    if (ingest_watermark_ == INT64_MIN) {
      EXPECT_FALSE(service_->recovered());
      EXPECT_EQ(model, nullptr);
    } else {
      EXPECT_TRUE(service_->recovered());
      ASSERT_NE(model, nullptr) << "recovery served no generation";
      // Recovery serves the generation of the last persisted step.
      EXPECT_EQ(model->models.window_end, ingest_watermark_ + kMillisPerHour);
    }
    submit_watermark_ = ingest_watermark_;
    for (const EpochBatch& batch : batches_) Submit(batch);
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
  struct Queued {
    TimeMs begin = 0;
    bool poison = false;
  };

  ServiceConfig config_;
  std::vector<EpochBatch> batches_;
  std::unique_ptr<StreamingMiningService> service_;
  std::deque<Queued> shadow_;  ///< the batches queued, oldest first
  TimeMs submit_watermark_ = INT64_MIN;
  TimeMs ingest_watermark_ = INT64_MIN;
  int64_t checked_generation_ = 0;
  int64_t crashes_ = 0;
};

class StreamingChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingChaosTest, ServiceSurvivesARandomFaultPlan) {
  const uint64_t seed = GetParam();
  const eval::Dataset dataset = BuildSeededDataset(seed);
  auto clock = std::make_shared<int64_t>(0);
  ChaosDriver driver(
      dataset, ChaosConfig(dataset, clock,
                           FreshStatePath("sweep_" + std::to_string(seed))));
  if (::testing::Test::HasFatalFailure()) return;
  Rng rng(seed * 977 + 11);
  const std::vector<HourFault> plan =
      RandomHourFaults(&rng, driver.batches().size(), /*max_faults=*/4);
  const int64_t planned_crashes =
      std::count(plan.begin(), plan.end(), HourFault::kCrash);

  const std::string target = dataset.entry_owner.empty()
                                 ? std::string("app")
                                 : dataset.entry_owner.begin()->second;
  int64_t queries_issued = 0;
  for (size_t i = 0; i < driver.batches().size(); ++i) {
    const EpochBatch& batch = driver.batches()[i];
    driver.Submit(batch, /*poison=*/plan[i] == HourFault::kPoison);
    if (plan[i] == HourFault::kReplay) driver.Submit(batch);
    *clock += 500;
    if (plan[i] == HourFault::kBacklog) {
      *clock += 2'500;  // three skipped steps age the model past stale
    } else {
      driver.StepOnce();
      if (plan[i] == HourFault::kCrash) driver.Crash();
    }
    if (::testing::Test::HasFatalFailure()) return;
    driver.CheckModel();
    driver.CheckHealth();
    if (i % 2 == 0) {
      // Before the first publish a query is refused; after it, answered.
      auto result = driver.service().WhatDependsOn(target);
      ++queries_issued;
      const StatusCode code = result.status().code();
      EXPECT_TRUE(code == StatusCode::kOk ||
                  code == StatusCode::kFailedPrecondition)
          << result.status();
    }
  }

  // Drain what the backlogs left behind.
  int guard = 0;
  while (driver.StepOnce() && ++guard < 500) {
    if (::testing::Test::HasFatalFailure()) return;
    driver.CheckModel();
  }
  ASSERT_LT(guard, 500) << "drain did not converge";

  EXPECT_EQ(driver.crashes(), planned_crashes);
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

  for (const int crash_index : {2, 7, 17}) {
    SCOPED_TRACE("crash after epoch " + std::to_string(crash_index));
    const std::string state_path =
        FreshStatePath("identity_" + std::to_string(crash_index));
    ServiceConfig config = ChaosConfig(dataset, clock, state_path);
    config.max_queue_batches = 25;

    {
      auto created = StreamingMiningService::Create(config);
      ASSERT_TRUE(created.ok()) << created.status();
      for (const EpochBatch& batch : batches.value()) {
        created.value()->SubmitBatch(Clone(batch));
      }
      // The process dies right after the step of epoch `crash_index`
      // persisted — the state a death between that persist and its
      // swap leaves, since the swap never touches the disk.
      for (int step = 0; step <= crash_index; ++step) {
        auto outcome = created.value()->Step();
        ASSERT_TRUE(outcome.ok()) << outcome.status();
        ASSERT_NE(outcome.value(), StepOutcome::kIdle);
      }
    }

    // Rebuild and blindly replay the whole day; already-ingested hours
    // bounce off the recovered watermark.
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
