// Unit tests of the sharded sweep supervisor over synthetic mine
// functions: each scenario scripts exactly which shard attempts fail
// or throw, so the retry and circuit-breaker machinery can be
// asserted deterministically without a real corpus. The resume
// (loading a cell's partial instead of mining it) is tested both on
// synthetic cells and, through RunSweep, on a small real corpus; the
// exhaustive post-crash states live in
// tests/integration/crash_recovery_test.cc.

#include "eval/shard_supervisor.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <regex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_tracker.h"
#include "core/serialization.h"
#include "eval/daily_runner.h"
#include "eval/dataset.h"

namespace logmine::eval {
namespace {

namespace fs = std::filesystem;

using core::DependencyModel;
using core::MakeUnorderedPair;
using core::ShardId;

/// The deterministic model a shard "mines": one pair naming the cell,
/// so the merged model proves which shards contributed.
DependencyModel CellModel(ShardId shard) {
  DependencyModel model;
  model.Insert(MakeUnorderedPair(
      "day" + std::to_string(shard.day),
      "range" + std::to_string(shard.range_index)));
  return model;
}

/// The cell's model plus a payload naming the cell, so a resume that
/// loses or swaps payloads shows.
ShardOutput CellOutput(ShardId shard) {
  return ShardOutput{CellModel(shard),
                     "payload-" + std::to_string(shard.day) + "-" +
                         std::to_string(shard.range_index)};
}

ShardMineFn CleanMiner() {
  return [](ShardId shard) -> Result<ShardOutput> {
    return CellOutput(shard);
  };
}

/// Counts attempts per shard (thread-safe).
class AttemptLog {
 public:
  int Record(ShardId shard) {
    std::lock_guard<std::mutex> lock(mu_);
    return ++counts_[std::make_pair(shard.day, shard.range_index)];
  }
  int count(ShardId shard) {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_[std::make_pair(shard.day, shard.range_index)];
  }

 private:
  std::mutex mu_;
  std::map<std::pair<int, int>, int> counts_;
};

/// A CleanMiner that also counts its attempts in `log`.
ShardMineFn CountingMiner(std::shared_ptr<AttemptLog> log) {
  return [log](ShardId shard) -> Result<ShardOutput> {
    log->Record(shard);
    return CellOutput(shard);
  };
}

/// A fresh path under the test tmpdir, pid-suffixed because ctest runs
/// every case as its own parallel process. The directory itself is not
/// created: the sweep must do that.
std::string FreshPath(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir.string();
}

std::string CellPath(const std::string& dir, ShardId shard) {
  return dir + "/partial-d" + std::to_string(shard.day) + "-r" +
         std::to_string(shard.range_index) + ".snap";
}

ShardSupervisorConfig FastConfig() {
  ShardSupervisorConfig config;
  config.retry.initial_backoff_ms = 1;
  config.retry.max_backoff_ms = 2;
  config.retry.jitter = 0.0;
  return config;
}

TEST(ShardSupervisorTest, CleanSweepCoversEveryCellAndMergesExactly) {
  const ShardGrid grid{3, 2};
  auto result = RunShardedSweep(grid, CleanMiner(), FastConfig(), 7);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().outcome, SweepOutcome::kComplete);
  EXPECT_TRUE(result.value().merged.coverage.complete());
  EXPECT_EQ(result.value().stats.shards_completed, 6);
  EXPECT_EQ(result.value().stats.shards_poisoned, 0);
  EXPECT_EQ(result.value().stats.failures, 0);
  DependencyModel expected;
  for (int day = 0; day < 3; ++day) {
    for (int range = 0; range < 2; ++range) {
      expected = expected.Union(CellModel({day, range}));
    }
  }
  EXPECT_EQ(result.value().merged.model.pairs(), expected.pairs());
  // Per-day models hold only that day's ranges.
  EXPECT_EQ(result.value().merged.daily[1].pairs(),
            CellModel({1, 0}).Union(CellModel({1, 1})).pairs());
  ASSERT_EQ(result.value().shards.size(), 6u);
  for (const ShardReport& report : result.value().shards) {
    EXPECT_TRUE(report.covered);
    EXPECT_FALSE(report.poisoned);
    EXPECT_EQ(report.attempts, 1);
  }
}

TEST(ShardSupervisorTest, TransientFailuresRetryToByteIdenticalBytes) {
  const ShardGrid grid{2, 2};
  auto clean = RunShardedSweep(grid, CleanMiner(), FastConfig(), 7);
  ASSERT_TRUE(clean.ok());

  auto log = std::make_shared<AttemptLog>();
  ShardMineFn flaky = [log](ShardId shard) -> Result<ShardOutput> {
    // Shard (1, 0) fails its first two attempts, then recovers.
    if (shard == ShardId{1, 0} && log->Record(shard) <= 2) {
      return Status::Internal("flaky worker");
    }
    return CellOutput(shard);
  };
  auto retried = RunShardedSweep(grid, flaky, FastConfig(), 7);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(retried.value().outcome, SweepOutcome::kComplete);
  EXPECT_EQ(retried.value().stats.failures, 2);
  EXPECT_EQ(core::MergedModelBytes(retried.value().merged),
            core::MergedModelBytes(clean.value().merged));
  const ShardReport& report = retried.value().shards[2];  // (1, 0) day-major
  EXPECT_EQ(report.shard, (ShardId{1, 0}));
  EXPECT_TRUE(report.covered);
  EXPECT_EQ(report.failures, 2);
  EXPECT_EQ(report.attempts, 3);
}

TEST(ShardSupervisorTest, BreakerPoisonsAfterExactlyThresholdFailures) {
  // The breaker is retry.max_attempts: one backoff run per cell.
  const ShardGrid grid{2, 1};
  auto log = std::make_shared<AttemptLog>();
  ShardMineFn doomed = [log](ShardId shard) -> Result<ShardOutput> {
    if (shard.day == 1) {
      log->Record(shard);
      return Status::Internal("permanently broken");
    }
    return CellOutput(shard);
  };
  ShardSupervisorConfig config = FastConfig();
  config.retry.max_attempts = 4;
  auto result = RunShardedSweep(grid, doomed, config, 7);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().outcome, SweepOutcome::kDegraded);
  // The breaker stopped the shard after exactly `max_attempts` failed
  // attempts.
  EXPECT_EQ(log->count({1, 0}), 4);
  EXPECT_EQ(result.value().stats.failures, 4);
  EXPECT_EQ(result.value().stats.breaker_trips, 1);
  EXPECT_EQ(result.value().stats.shards_poisoned, 1);
  const ShardReport& report = result.value().shards[1];
  EXPECT_TRUE(report.poisoned);
  EXPECT_FALSE(report.covered);
  EXPECT_EQ(report.attempts, 4);
  EXPECT_EQ(report.failures, 4);
  EXPECT_NE(report.last_error.find("permanently broken"), std::string::npos);
  // Coverage names exactly the poisoned cell.
  const auto missing = result.value().merged.coverage.MissingCells();
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], std::make_pair(1, 0));
}

TEST(ShardSupervisorTest, NonRetryableFailurePoisonsImmediately) {
  const ShardGrid grid{2, 1};
  auto log = std::make_shared<AttemptLog>();
  ShardMineFn broken = [log](ShardId shard) -> Result<ShardOutput> {
    if (shard.day == 0) {
      log->Record(shard);
      return Status::InvalidArgument("config rejects this shard");
    }
    return CellOutput(shard);
  };
  auto result = RunShardedSweep(grid, broken, FastConfig(), 7);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().outcome, SweepOutcome::kDegraded);
  // No retries for a deterministic failure: one attempt, quarantined.
  EXPECT_EQ(log->count({0, 0}), 1);
  EXPECT_EQ(result.value().stats.failures, 1);
  EXPECT_EQ(result.value().stats.breaker_trips, 0);
  EXPECT_TRUE(result.value().shards[0].poisoned);
}

TEST(ShardSupervisorTest, AllShardsPoisonedIsAFailedSweep) {
  ShardMineFn hopeless = [](ShardId) -> Result<ShardOutput> {
    return Status::InvalidArgument("nothing works");
  };
  auto result = RunShardedSweep(ShardGrid{2, 2}, hopeless, FastConfig(), 7);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("all 4 shards poisoned"),
            std::string::npos);
}

TEST(ShardSupervisorTest, OnlyInternalFailuresAndThrowsRetry) {
  // Cell r0 trips a deadline and r1 fails to parse: neither would go
  // differently on a re-mine, so each poisons after one attempt. Cell
  // r2 fails Internal and r3 throws: both retry to max_attempts. Cell
  // r4 mines cleanly, so the sweep degrades instead of failing.
  const ShardGrid grid{1, 5};
  auto log = std::make_shared<AttemptLog>();
  ShardMineFn mixed = [log](ShardId shard) -> Result<ShardOutput> {
    log->Record(shard);
    switch (shard.range_index) {
      case 0:
        return Status::DeadlineExceeded("late");
      case 1:
        return Status::ParseError("garbled");
      case 2:
        return Status::Internal("worker died");
      case 3:
        throw std::runtime_error("miner blew up");
      default:
        return CellOutput(shard);
    }
  };
  ShardSupervisorConfig config = FastConfig();
  auto result = RunShardedSweep(grid, mixed, config, 7);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().outcome, SweepOutcome::kDegraded);
  const int expected_attempts[] = {1, 1, config.retry.max_attempts,
                                   config.retry.max_attempts, 1};
  for (int range = 0; range < 5; ++range) {
    const ShardReport& report = result.value().shards[range];
    EXPECT_EQ(log->count({0, range}), expected_attempts[range]) << range;
    EXPECT_EQ(report.attempts, expected_attempts[range]) << range;
    EXPECT_EQ(report.poisoned, range < 4) << range;
  }
  EXPECT_EQ(result.value().stats.breaker_trips, 2);
  EXPECT_EQ(result.value().stats.shards_poisoned, 4);
}

TEST(ShardSupervisorTest, ThrowingMineIsContainedAsAPoisonedShard) {
  // A throw escapes no further than its attempt: it fails as Internal,
  // retries like any worker death, and poisons the cell after
  // max_attempts while the other cells merge.
  const ShardGrid grid{3, 1};
  auto log = std::make_shared<AttemptLog>();
  ShardMineFn throwing = [log](ShardId shard) -> Result<ShardOutput> {
    if (shard.day == 1) {
      log->Record(shard);
      throw std::runtime_error("miner blew up");
    }
    return CellOutput(shard);
  };
  ShardSupervisorConfig config = FastConfig();
  auto result = RunShardedSweep(grid, throwing, config, 7);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().outcome, SweepOutcome::kDegraded);
  EXPECT_EQ(log->count({1, 0}), config.retry.max_attempts);
  const ShardReport& report = result.value().shards[1];
  EXPECT_TRUE(report.poisoned);
  EXPECT_EQ(report.attempts, config.retry.max_attempts);
  EXPECT_NE(report.last_error.find("miner blew up"), std::string::npos)
      << report.last_error;
  EXPECT_EQ(result.value().stats.breaker_trips, 1);
  EXPECT_TRUE(result.value().shards[0].covered);
  EXPECT_TRUE(result.value().shards[2].covered);
  EXPECT_EQ(result.value().merged.model.pairs(),
            CellModel({0, 0}).Union(CellModel({2, 0})).pairs());
}

TEST(ShardSupervisorTest, MaxInFlightThrottlesFirstLaunches) {
  // max_in_flight bounds every cell being mined, retries included: a
  // cell retries inside its own task, so (0, 0)'s second attempt takes
  // no extra slot.
  auto peak = std::make_shared<std::atomic<int>>(0);
  auto running = std::make_shared<std::atomic<int>>(0);
  auto log = std::make_shared<AttemptLog>();
  ShardMineFn tracked = [peak, running,
                         log](ShardId shard) -> Result<ShardOutput> {
    const int now = running->fetch_add(1) + 1;
    int seen = peak->load();
    while (now > seen && !peak->compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    running->fetch_sub(1);
    if (shard == ShardId{0, 0} && log->Record(shard) == 1) {
      return Status::Internal("one flake");
    }
    return CellOutput(shard);
  };
  Executor executor(8);
  ShardSupervisorConfig config = FastConfig();
  config.executor = &executor;
  config.max_in_flight = 2;
  auto result = RunShardedSweep(ShardGrid{4, 2}, tracked, config, 7);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().outcome, SweepOutcome::kComplete);
  EXPECT_EQ(result.value().stats.attempts, 9);
  EXPECT_LE(peak->load(), 2);
}

TEST(ShardSupervisorTest, RejectsBadGridsAndConfigs) {
  EXPECT_FALSE(RunShardedSweep(ShardGrid{0, 1}, CleanMiner(), {}, 7).ok());
  EXPECT_FALSE(RunShardedSweep(ShardGrid{1, 0}, CleanMiner(), {}, 7).ok());
  EXPECT_FALSE(RunShardedSweep(ShardGrid{1, 1}, ShardMineFn(), {}, 7).ok());
  ShardSupervisorConfig config;
  config.retry.max_attempts = 0;
  auto refused = RunShardedSweep(ShardGrid{1, 1}, CleanMiner(), config, 7);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  // The dataset wrappers hold num_ranges to the same rule as the grid.
  const Dataset dataset;
  for (int num_ranges : {0, -2}) {
    ShardSupervisorConfig sliced;
    sliced.num_ranges = num_ranges;
    EXPECT_EQ(RunL1ShardedSweep(dataset, {}, sliced).status().code(),
              StatusCode::kInvalidArgument)
        << num_ranges;
    EXPECT_EQ(RunSweep(dataset, {}, sliced).status().code(),
              StatusCode::kInvalidArgument)
        << num_ranges;
  }
}

TEST(ShardSupervisorTest, SweepOutcomeNamesAreStable) {
  EXPECT_EQ(SweepOutcomeName(SweepOutcome::kComplete), "complete");
  EXPECT_EQ(SweepOutcomeName(SweepOutcome::kDegraded), "degraded");
  EXPECT_EQ(SweepOutcomeName(SweepOutcome::kFailed), "failed");
}

TEST(ShardSupervisorTest, MetricsMirrorTheSweepStats) {
  obs::ObsContext obs;
  auto log = std::make_shared<AttemptLog>();
  ShardMineFn flaky = [log](ShardId shard) -> Result<ShardOutput> {
    if (shard == ShardId{0, 0} && log->Record(shard) == 1) {
      return Status::Internal("one flake");
    }
    return CellOutput(shard);
  };
  ShardSupervisorConfig config = FastConfig();
  config.obs = &obs;
  auto result = RunShardedSweep(ShardGrid{1, 2}, flaky, config, 7);
  ASSERT_TRUE(result.ok()) << result.status();
  const obs::MetricsSnapshot snapshot = obs.metrics().Snapshot();
  EXPECT_EQ(snapshot.Value("shard.attempts"), 3);
  EXPECT_EQ(snapshot.Value("shard.failures"), 1);
  EXPECT_EQ(snapshot.Value("shard.completed"), 2);
  EXPECT_EQ(snapshot.Value("shard.poisoned"), 0);
  EXPECT_EQ(snapshot.Value("sweep.coverage_permille"), 1000);

  // A degraded resume: stats are summed from the cells after the loop,
  // metrics are counted as the cells run, and the two must agree — cell
  // (0, 0) loads from its partial, (0, 1) trips the breaker.
  ShardSupervisorConfig resumable = FastConfig();
  resumable.partial_dir = FreshPath("partials_metrics");
  ASSERT_TRUE(
      RunShardedSweep(ShardGrid{1, 2}, CleanMiner(), resumable, 7).ok());
  fs::remove(CellPath(resumable.partial_dir, {0, 1}));
  ShardMineFn doomed = [](ShardId shard) -> Result<ShardOutput> {
    if (shard == ShardId{0, 1}) return Status::Internal("always down");
    return CellOutput(shard);
  };
  obs::ObsContext resume_obs;
  resumable.obs = &resume_obs;
  auto degraded = RunShardedSweep(ShardGrid{1, 2}, doomed, resumable, 7);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded.value().outcome, SweepOutcome::kDegraded);
  const ShardedSweepStats& stats = degraded.value().stats;
  EXPECT_EQ(stats.shards_loaded, 1);
  EXPECT_EQ(stats.breaker_trips, 1);
  EXPECT_EQ(stats.shards_poisoned, 1);
  const obs::MetricsSnapshot resumed = resume_obs.metrics().Snapshot();
  EXPECT_EQ(resumed.Value("shard.breaker_trips"), stats.breaker_trips);
  EXPECT_EQ(resumed.Value("shard.poisoned"), stats.shards_poisoned);
  EXPECT_EQ(resumed.Value("checkpoint.snapshots_read"), stats.shards_loaded);
  EXPECT_EQ(resumed.Value("shard.attempts"), stats.attempts);
  EXPECT_EQ(resumed.Value("shard.failures"), stats.failures);
  EXPECT_EQ(resumed.Value("shard.completed"), stats.shards_completed);
  EXPECT_EQ(stats.attempts, FastConfig().retry.max_attempts);
  EXPECT_EQ(stats.shards_completed, 0);
}

// The events that close a timed scope — an attempt that failed, one that
// succeeded, the sweep — each carry a full stage record.
TEST(ShardSupervisorTest, JournalClosesAttemptsAndTheSweepWithStageRecords) {
  const std::regex stage_record(
      R"("dur_ns":\d+,"cpu_ns":\d+,"max_rss_kb":[1-9]\d*\}$)");
  obs::ObsContext obs;
  auto log = std::make_shared<AttemptLog>();
  ShardMineFn flaky = [log](ShardId shard) -> Result<ShardOutput> {
    if (log->Record(shard) == 1) return Status::Internal("one flake");
    return CellOutput(shard);
  };
  ShardSupervisorConfig config = FastConfig();
  config.obs = &obs;
  ASSERT_TRUE(RunShardedSweep(ShardGrid{1, 1}, flaky, config, 7).ok());
  std::map<std::string, int> closed;
  for (const std::string& line : obs.journal().Tail(64)) {
    for (const char* event :
         {"shard_attempt_failed", "shard_attempt_done", "sweep_end"}) {
      if (line.find("\"event\":\"" + std::string(event) + "\"") ==
          std::string::npos) {
        continue;
      }
      ++closed[event];
      EXPECT_TRUE(std::regex_search(line, stage_record)) << line;
    }
  }
  EXPECT_EQ(closed["shard_attempt_failed"], 1);
  EXPECT_EQ(closed["shard_attempt_done"], 1);
  EXPECT_EQ(closed["sweep_end"], 1);
}

TEST(ShardSupervisorTest, CreatesAMissingPartialDirAtStart) {
  ShardSupervisorConfig config = FastConfig();
  config.partial_dir = FreshPath("partials_missing") + "/nested/dir";
  auto result = RunShardedSweep(ShardGrid{1, 2}, CleanMiner(), config, 7);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().outcome, SweepOutcome::kComplete);
  EXPECT_TRUE(fs::exists(CellPath(config.partial_dir, {0, 0})));
  EXPECT_TRUE(fs::exists(CellPath(config.partial_dir, {0, 1})));
}

TEST(ShardSupervisorTest, UncreatablePartialDirFailsBeforeMining) {
  const std::string blocker = FreshPath("partials_blocker");
  { std::ofstream(blocker) << "a file, not a directory"; }
  auto log = std::make_shared<AttemptLog>();
  ShardSupervisorConfig config = FastConfig();
  config.partial_dir = blocker + "/sub";
  auto result = RunShardedSweep(ShardGrid{1, 2}, CountingMiner(log), config, 7);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("cannot create partial dir"),
            std::string::npos)
      << result.status();
  EXPECT_EQ(log->count({0, 0}), 0);
}

TEST(ShardSupervisorTest, TornOrGarbagePartialIsDiscardedAndMinedAgain) {
  const ShardGrid grid{3, 2};
  ShardSupervisorConfig config = FastConfig();
  config.partial_dir = FreshPath("partials_torn");
  auto reference = RunShardedSweep(grid, CleanMiner(), config, 7);
  ASSERT_TRUE(reference.ok()) << reference.status();

  const std::string torn = CellPath(config.partial_dir, {0, 1});
  fs::resize_file(torn, fs::file_size(torn) / 2);
  { std::ofstream(CellPath(config.partial_dir, {1, 0})) << "not a snapshot"; }
  fs::remove(CellPath(config.partial_dir, {2, 1}));

  auto log = std::make_shared<AttemptLog>();
  auto recovered = RunShardedSweep(grid, CountingMiner(log), config, 7);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value().outcome, SweepOutcome::kComplete);
  EXPECT_EQ(recovered.value().stats.partials_discarded, 2);
  EXPECT_EQ(recovered.value().stats.shards_loaded, grid.cells() - 3);
  EXPECT_EQ(log->count({0, 1}), 1);
  EXPECT_EQ(log->count({1, 0}), 1);
  EXPECT_EQ(log->count({2, 1}), 1);
  EXPECT_EQ(log->count({0, 0}), 0);
  EXPECT_EQ(core::MergedModelBytes(recovered.value().merged),
            core::MergedModelBytes(reference.value().merged));
  // The re-mined cells were persisted again, so a third run loads every
  // cell, payloads included, and mines none.
  auto third = RunShardedSweep(grid, CountingMiner(log), config, 7);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(third.value().stats.shards_loaded, grid.cells());
  EXPECT_EQ(third.value().stats.partials_discarded, 0);
  EXPECT_EQ(third.value().stats.attempts, 0);
  for (const ShardReport& report : third.value().shards) {
    EXPECT_TRUE(report.covered);
    EXPECT_EQ(report.payload, CellOutput(report.shard).payload);
  }
  EXPECT_EQ(core::MergedModelBytes(third.value().merged),
            core::MergedModelBytes(reference.value().merged));
}

TEST(ShardSupervisorTest, AnotherSweepsPartialRefusesWithFailedPrecondition) {
  ShardSupervisorConfig config = FastConfig();
  config.partial_dir = FreshPath("partials_foreign");
  ASSERT_TRUE(RunShardedSweep(ShardGrid{2, 2}, CleanMiner(), config, 7).ok());

  auto log = std::make_shared<AttemptLog>();
  // Another state hash (config or corpus) over the same grid...
  auto other_hash =
      RunShardedSweep(ShardGrid{2, 2}, CountingMiner(log), config, 8);
  ASSERT_FALSE(other_hash.ok());
  EXPECT_EQ(other_hash.status().code(), StatusCode::kFailedPrecondition);
  // ...or the same hash over another grid refuses before mining.
  auto other_grid =
      RunShardedSweep(ShardGrid{3, 2}, CountingMiner(log), config, 7);
  ASSERT_FALSE(other_grid.ok());
  EXPECT_EQ(other_grid.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(log->count({0, 0}), 0);
  EXPECT_EQ(log->count({2, 0}), 0);
}

TEST(ShardSupervisorTest, ObsCountersRecordTheResume) {
  const ShardGrid grid{2, 2};
  ShardSupervisorConfig config = FastConfig();
  config.partial_dir = FreshPath("partials_obs");
  ASSERT_TRUE(RunShardedSweep(grid, CleanMiner(), config, 7).ok());
  { std::ofstream(CellPath(config.partial_dir, {1, 1})) << "garbage"; }

  obs::ObsContext obs;
  config.obs = &obs;
  auto resumed = RunShardedSweep(grid, CleanMiner(), config, 7);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  const obs::MetricsSnapshot snapshot = obs.metrics().Snapshot();
  EXPECT_EQ(snapshot.Value("checkpoint.snapshots_read"), 3);
  EXPECT_EQ(snapshot.Value("checkpoint.partials_discarded"), 1);
  EXPECT_GT(snapshot.Value("checkpoint.bytes_read"), 0);
  EXPECT_EQ(snapshot.Value("checkpoint.read_ns"), 4);  // one per file
  EXPECT_EQ(snapshot.Value("shard.attempts"), 1);
  EXPECT_EQ(snapshot.Value("shard.completed"), 1);
  std::string journal;
  for (const std::string& line : obs.journal().Tail(64)) journal += line;
  EXPECT_NE(journal.find("\"event\":\"shard_loaded\""), std::string::npos);
  EXPECT_NE(journal.find("\"event\":\"partial_discarded\""),
            std::string::npos);
}

/// Resumable runs: RunSweep with a partial dir on a real 2-day corpus.
class ResumableRunnerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.simulation.num_days = 2;
    config.simulation.scale = 0.1;
    auto built = BuildDataset(config);
    ASSERT_TRUE(built.ok()) << built.status();
    dataset_ = new Dataset(std::move(built).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  /// L3 only: the fast technique, enough to exercise the resume.
  static SweepConfig L3Only(const core::L3Config& l3 = {}) {
    SweepConfig config;
    config.run_l1 = false;
    config.run_l2 = false;
    config.l3 = l3;
    return config;
  }

  static ShardSupervisorConfig Supervisor(const std::string& dir) {
    ShardSupervisorConfig config = FastConfig();
    config.partial_dir = dir;
    return config;
  }

  static Dataset* dataset_;
};

Dataset* ResumableRunnerTest::dataset_ = nullptr;

/// The moving-landscape tracker after observing every day's model of
/// `run` in day order.
core::ModelTracker TrackDays(const DailyRunResult& run,
                             const core::ModelTrackerConfig& config) {
  core::ModelTracker tracker(config);
  for (const core::DependencyModel& model : run.merged.daily) {
    tracker.Observe(model);
  }
  return tracker;
}

std::string TrackerBytes(const core::ModelTracker& tracker) {
  SnapshotWriter w;
  w.BeginSection("tracker");
  core::EncodeModelTracker(tracker, &w);
  w.EndSection();
  return std::move(w).Finish();
}

/// Everything a resume must reproduce for one technique.
void ExpectSameRun(const DailyRunResult& got, const DailyRunResult& want) {
  EXPECT_EQ(core::MergedModelBytes(got.merged),
            core::MergedModelBytes(want.merged));
  EXPECT_EQ(got.series, want.series);
}

TEST_F(ResumableRunnerTest, NoCheckpointDirMatchesPlainDailyRunner) {
  auto plain = RunL3Daily(*dataset_, core::L3Config{});
  ASSERT_TRUE(plain.ok()) << plain.status();
  auto sweep = RunSweep(*dataset_, L3Only(), FastConfig());  // no dir
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  const DailyRunResult& run = *sweep.value().l3;
  EXPECT_EQ(run.sweep.shards_loaded, 0);
  EXPECT_EQ(run.sweep.shards_completed, dataset_->num_days());
  ExpectSameRun(run, plain.value());
  ASSERT_EQ(run.series.day_labels.size(), 2u);
  EXPECT_EQ(run.series.day_labels[0], "2005-12-06");
}

TEST_F(ResumableRunnerTest, SecondRunLoadsEverythingAndMinesNothing) {
  const std::string dir = FreshPath("sweep_full");
  auto first = RunSweep(*dataset_, L3Only(), Supervisor(dir));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first.value().l3->sweep.shards_completed, dataset_->num_days());

  auto second = RunSweep(*dataset_, L3Only(), Supervisor(dir));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second.value().l3->sweep.shards_loaded, dataset_->num_days());
  EXPECT_EQ(second.value().l3->sweep.attempts, 0);
  ExpectSameRun(*second.value().l3, *first.value().l3);
}

TEST_F(ResumableRunnerTest, SweepRunsSelectedTechniques) {
  SweepConfig config;
  config.run_l1 = false;  // L1 is the slow one; unit-level skips it
  const std::string dir = FreshPath("sweep_techniques");
  auto sweep = RunSweep(*dataset_, config, Supervisor(dir));
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  EXPECT_FALSE(sweep.value().l1.has_value());
  ASSERT_TRUE(sweep.value().l2.has_value());
  ASSERT_TRUE(sweep.value().l3.has_value());
  EXPECT_TRUE(fs::exists(CellPath(dir + "/l2", {1, 0})));
  EXPECT_TRUE(fs::exists(CellPath(dir + "/l3", {1, 0})));
  EXPECT_FALSE(fs::exists(dir + "/l1"));

  // The same series and session stats as the plain daily runners.
  std::vector<core::SessionBuildStats> plain_stats;
  auto plain_l2 = RunL2Daily(*dataset_, config.l2, &plain_stats);
  ASSERT_TRUE(plain_l2.ok()) << plain_l2.status();
  ASSERT_EQ(sweep.value().l2->session_stats.size(), plain_stats.size());
  for (size_t d = 0; d < plain_stats.size(); ++d) {
    EXPECT_EQ(sweep.value().l2->session_stats[d].num_sessions,
              plain_stats[d].num_sessions);
    EXPECT_EQ(sweep.value().l2->series.days[d].true_positives,
              plain_l2.value().series.days[d].true_positives);
  }

  // A re-run loads both techniques wholesale, session stats included.
  auto again = RunSweep(*dataset_, config, Supervisor(dir));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value().l2->sweep.shards_loaded, 2);
  EXPECT_EQ(again.value().l3->sweep.shards_loaded, 2);
  EXPECT_EQ(again.value().l2->sweep.attempts, 0);
  EXPECT_EQ(again.value().l3->sweep.attempts, 0);
  ASSERT_EQ(again.value().l2->session_stats.size(), plain_stats.size());
  EXPECT_EQ(again.value().l2->session_stats[1].logs_assigned,
            plain_stats[1].logs_assigned);
}

TEST_F(ResumableRunnerTest, TruncatedNewestGenerationFallsBack) {
  const std::string dir = FreshPath("sweep_truncated");
  auto reference = RunSweep(*dataset_, L3Only(), Supervisor(dir));
  ASSERT_TRUE(reference.ok()) << reference.status();

  // Truncate the newest day's partial in place (a torn write that somehow
  // reached the final path): the older day loads, the newest is re-mined.
  const std::string newest = CellPath(dir + "/l3", {1, 0});
  ASSERT_TRUE(fs::exists(newest));
  fs::resize_file(newest, fs::file_size(newest) / 2);

  auto recovered = RunSweep(*dataset_, L3Only(), Supervisor(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value().l3->sweep.partials_discarded, 1);
  EXPECT_EQ(recovered.value().l3->sweep.shards_loaded, 1);
  EXPECT_EQ(recovered.value().l3->sweep.shards_completed, 1);
  ExpectSameRun(*recovered.value().l3, *reference.value().l3);
}

TEST_F(ResumableRunnerTest, GarbageNewestGenerationFallsBack) {
  const std::string dir = FreshPath("sweep_garbage");
  auto reference = RunSweep(*dataset_, L3Only(), Supervisor(dir));
  ASSERT_TRUE(reference.ok()) << reference.status();

  {
    std::ofstream out(CellPath(dir + "/l3", {1, 0}), std::ios::binary);
    out << "this is not a snapshot";
  }
  auto recovered = RunSweep(*dataset_, L3Only(), Supervisor(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value().l3->sweep.partials_discarded, 1);
  EXPECT_EQ(recovered.value().l3->sweep.shards_loaded, 1);
  EXPECT_EQ(recovered.value().l3->sweep.shards_completed, 1);
  ExpectSameRun(*recovered.value().l3, *reference.value().l3);
}

TEST_F(ResumableRunnerTest, ConfigChangeRefusesToResume) {
  core::L3Config l3;
  const std::string dir = FreshPath("sweep_config_change");
  ASSERT_TRUE(RunSweep(*dataset_, L3Only(l3), Supervisor(dir)).ok());

  l3.min_citations += 1;  // result-relevant change
  auto resumed = RunSweep(*dataset_, L3Only(l3), Supervisor(dir));
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ResumableRunnerTest, ThreadCountChangeResumesFine) {
  core::L3Config l3;
  l3.num_threads = 1;
  const std::string dir = FreshPath("sweep_threads");
  ASSERT_TRUE(RunSweep(*dataset_, L3Only(l3), Supervisor(dir)).ok());

  l3.num_threads = 0;  // excluded from the fingerprint: results are equal
  auto resumed = RunSweep(*dataset_, L3Only(l3), Supervisor(dir));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed.value().l3->sweep.shards_loaded, dataset_->num_days());
  EXPECT_EQ(resumed.value().l3->sweep.attempts, 0);
}

TEST_F(ResumableRunnerTest, ResumeUnderNewTrackerConfigEqualsFreshRun) {
  // The tracker is a fold over the per-day models, not persisted state:
  // partials mined before a tracker change resume under the new one.
  const std::string dir = FreshPath("sweep_tracker");
  ASSERT_TRUE(RunSweep(*dataset_, L3Only(), Supervisor(dir)).ok());
  auto resumed = RunSweep(*dataset_, L3Only(), Supervisor(dir));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed.value().l3->sweep.shards_loaded, dataset_->num_days());
  auto fresh = RunL3Daily(*dataset_, core::L3Config{});
  ASSERT_TRUE(fresh.ok()) << fresh.status();

  core::ModelTrackerConfig tracker;
  tracker.confirm_after += 1;
  tracker.retire_after += 2;
  EXPECT_EQ(TrackerBytes(TrackDays(*resumed.value().l3, tracker)),
            TrackerBytes(TrackDays(fresh.value(), tracker)));
  EXPECT_EQ(TrackDays(*resumed.value().l3, tracker).num_observations(),
            dataset_->num_days());
}

}  // namespace
}  // namespace logmine::eval
