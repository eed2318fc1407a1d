// The tentpole acceptance property of the sharded sweep supervisor: a
// multi-day L1 sweep partitioned into (day × pair-range) shards and run
// under seeded chaos — attempts of the mine function failing or
// throwing — converges to bytes identical to a fault-free run whenever
// every fault is recoverable, and to an exactly-accounted degraded model
// when it is not. Identity is asserted on MergedModelBytes, the
// serialized form the supervisor itself merges and persists.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/l1_activity_miner.h"
#include "core/serialization.h"
#include "eval/dataset.h"
#include "eval/shard_supervisor.h"
#include "util/rng.h"

namespace logmine::eval {
namespace {

namespace fs = std::filesystem;

constexpr int kNumRanges = 3;

/// One cell's scripted misbehaviour: its first `times` attempts fail —
/// by returning Internal, or by throwing — then it mines normally.
struct CellFault {
  int day = 0;
  int range = 0;
  int times = 0;
  bool throws = false;
};

/// Draws 1 to 3 distinct faulty cells of the grid, each failing its
/// first `times` in [1, max_times] attempts, half of them by throwing.
std::vector<CellFault> RandomCellFaults(Rng* rng, int num_days,
                                        int max_times) {
  std::vector<int> cells(static_cast<size_t>(num_days * kNumRanges));
  for (size_t i = 0; i < cells.size(); ++i) cells[i] = static_cast<int>(i);
  rng->Shuffle(&cells);
  std::vector<CellFault> faults(static_cast<size_t>(rng->UniformInt(1, 3)));
  for (size_t i = 0; i < faults.size(); ++i) {
    faults[i] = {cells[i] / kNumRanges, cells[i] % kNumRanges,
                 static_cast<int>(rng->UniformInt(1, max_times)),
                 rng->Bernoulli(0.5)};
  }
  return faults;
}

/// `mine` with `faults` applied. Only one task mines a cell, attempt
/// after attempt, so each cell's counter is touched by one thread.
ShardMineFn FailingMine(ShardMineFn mine, std::vector<CellFault> faults) {
  auto attempts = std::make_shared<std::vector<int>>(faults.size(), 0);
  return [mine = std::move(mine), faults = std::move(faults),
          attempts](core::ShardId shard) -> Result<ShardOutput> {
    for (size_t i = 0; i < faults.size(); ++i) {
      const CellFault& fault = faults[i];
      if (fault.day != shard.day || fault.range != shard.range_index ||
          ++(*attempts)[i] > fault.times) {
        continue;
      }
      if (fault.throws) throw std::runtime_error("scripted throw");
      return Status::Internal("scripted worker death");
    }
    return mine(shard);
  };
}

class ChaosSweepTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.simulation.num_days = 2;
    config.simulation.scale = 0.1;
    auto built = BuildDataset(config);
    ASSERT_TRUE(built.ok()) << built.status();
    dataset_ = new Dataset(std::move(built).value());

    auto clean = RunL1ShardedSweep(*dataset_, L1Cfg(), Supervisor());
    ASSERT_TRUE(clean.ok()) << clean.status();
    ASSERT_EQ(clean.value().outcome, SweepOutcome::kComplete);
    reference_ = new std::string(core::MergedModelBytes(clean.value().merged));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    delete reference_;
    reference_ = nullptr;
  }

  static core::L1Config L1Cfg() {
    core::L1Config config;
    // Scaled-down corpus (0.1 of production volume): proportionally
    // lower support floor, coarser slots to keep the test fast.
    config.minlogs = 8;
    config.slot_length = 2 * kMillisPerHour;
    return config;
  }

  /// The L1 sweep RunL1ShardedSweep runs, with `faults` applied.
  static Result<ShardedSweepResult> FaultySweep(
      const ShardSupervisorConfig& config, std::vector<CellFault> faults) {
    return RunShardedSweep(
        ShardGrid{dataset_->num_days(), kNumRanges},
        FailingMine(MakeL1ShardMiner(*dataset_, L1Cfg(), kNumRanges),
                    std::move(faults)),
        config,
        SweepStateHash(*dataset_, Technique::kL1,
                       core::ConfigFingerprint(L1Cfg()), kNumRanges));
  }

  static ShardSupervisorConfig Supervisor() {
    ShardSupervisorConfig config;
    config.num_ranges = kNumRanges;
    config.retry.initial_backoff_ms = 1;
    config.retry.max_backoff_ms = 2;
    return config;
  }

  static std::string FreshDir(const std::string& name) {
    // Pid-suffixed: ctest runs each case as its own parallel process
    // and every process rebuilds the suite-level reference.
    const fs::path dir = fs::path(::testing::TempDir()) /
                         (name + "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
  }

 protected:
  static Dataset* dataset_;
  static std::string* reference_;  // fault-free MergedModelBytes
};

Dataset* ChaosSweepTest::dataset_ = nullptr;
std::string* ChaosSweepTest::reference_ = nullptr;

TEST_F(ChaosSweepTest, ShardedSweepMatchesPerDayMining) {
  // Ground truth from a different code path: mine each day unsliced
  // with the miner itself and union.
  core::DependencyModel expected_union;
  auto clean = RunL1ShardedSweep(*dataset_, L1Cfg(), Supervisor());
  ASSERT_TRUE(clean.ok()) << clean.status();
  core::L1ActivityMiner miner(L1Cfg());
  for (int day = 0; day < dataset_->num_days(); ++day) {
    auto mined = miner.Mine(dataset_->store, dataset_->day_begin(day),
                            dataset_->day_end(day));
    ASSERT_TRUE(mined.ok()) << mined.status();
    const core::DependencyModel model =
        mined.value().Dependencies(dataset_->store);
    EXPECT_EQ(clean.value().merged.daily[day].pairs(), model.pairs())
        << "day " << day;
    expected_union = expected_union.Union(model);
  }
  EXPECT_EQ(clean.value().merged.model.pairs(), expected_union.pairs());
}

TEST_F(ChaosSweepTest, RecoverableChaosConvergesToByteIdenticalModels) {
  // Seeded plans with no permanent faults: every failed or throwing
  // attempt is retried away within retry.max_attempts, so the merged
  // bytes must equal the fault-free reference — the sharded analogue of
  // the crash-recovery byte-identity contract.
  const ShardSupervisorConfig config = Supervisor();
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const std::vector<CellFault> faults = RandomCellFaults(
        &rng, dataset_->num_days(), config.retry.max_attempts - 1);
    int64_t scripted = 0;
    for (const CellFault& fault : faults) scripted += fault.times;

    auto chaotic = FaultySweep(config, faults);
    ASSERT_TRUE(chaotic.ok()) << "seed " << seed << ": " << chaotic.status();
    EXPECT_EQ(chaotic.value().outcome, SweepOutcome::kComplete) << seed;
    EXPECT_TRUE(chaotic.value().merged.coverage.complete()) << seed;
    EXPECT_EQ(core::MergedModelBytes(chaotic.value().merged), *reference_)
        << "seed " << seed << " diverged from the fault-free run";
    // Every scripted failure shows in the stats, and nothing else.
    EXPECT_EQ(chaotic.value().stats.failures, scripted) << seed;
    EXPECT_EQ(chaotic.value().stats.attempts,
              dataset_->num_days() * kNumRanges + scripted)
        << seed;
  }
}

TEST_F(ChaosSweepTest, PermanentFaultsDegradeWithExactCoverageAccounting) {
  // Seeded plans whose faulty cells never recover: the sweep must
  // degrade (not fail, not lie), report exactly those cells missing, and
  // deliver the union of every surviving shard's true model.
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919);
    std::vector<CellFault> faults =
        RandomCellFaults(&rng, dataset_->num_days(), /*max_times=*/1);
    std::vector<std::pair<int, int>> doomed;
    for (CellFault& fault : faults) {
      fault.times = INT32_MAX;
      doomed.emplace_back(fault.day, fault.range);
    }
    std::sort(doomed.begin(), doomed.end());

    ShardSupervisorConfig config = Supervisor();
    config.partial_dir = FreshDir("chaos_partials_" + std::to_string(seed));
    auto degraded = FaultySweep(config, faults);
    ASSERT_TRUE(degraded.ok()) << degraded.status();
    EXPECT_EQ(degraded.value().outcome, SweepOutcome::kDegraded);

    // Coverage names exactly the permanently failing cells.
    EXPECT_EQ(degraded.value().merged.coverage.MissingCells(), doomed);
    EXPECT_EQ(degraded.value().stats.shards_poisoned,
              static_cast<int64_t>(doomed.size()));
    EXPECT_EQ(degraded.value().stats.breaker_trips,
              static_cast<int64_t>(doomed.size()));

    // The merged model is exactly the union of direct per-shard mining
    // over the covered cells — a lost shard subtracts its own pairs only.
    core::L1ActivityMiner miner(L1Cfg());
    core::DependencyModel expected;
    for (int day = 0; day < dataset_->num_days(); ++day) {
      for (int range = 0; range < kNumRanges; ++range) {
        if (!degraded.value().merged.coverage.IsCovered(day, range)) continue;
        auto sliced = miner.Mine(
            dataset_->store, dataset_->day_begin(day), dataset_->day_end(day),
            core::PairRange{static_cast<uint32_t>(range), kNumRanges});
        ASSERT_TRUE(sliced.ok()) << sliced.status();
        expected =
            expected.Union(sliced.value().Dependencies(dataset_->store));
      }
    }
    EXPECT_EQ(degraded.value().merged.model.pairs(), expected.pairs());

    // Surviving partials were persisted; poisoned cells were not.
    int persisted = 0;
    for ([[maybe_unused]] const auto& entry :
         fs::directory_iterator(config.partial_dir)) {
      ++persisted;
    }
    EXPECT_EQ(persisted, dataset_->num_days() * kNumRanges -
                             static_cast<int>(doomed.size()));
    for (const auto& [day, range] : doomed) {
      EXPECT_FALSE(fs::exists(fs::path(config.partial_dir) /
                              ("partial-d" + std::to_string(day) + "-r" +
                               std::to_string(range) + ".snap")));
    }
  }
}

TEST_F(ChaosSweepTest, PersistedPartialsParseBackToTheMergedInputs) {
  ShardSupervisorConfig config = Supervisor();
  config.partial_dir = FreshDir("clean_partials");
  auto swept = RunL1ShardedSweep(*dataset_, L1Cfg(), config);
  ASSERT_TRUE(swept.ok()) << swept.status();
  std::vector<core::PartialModel> parts;
  for (const auto& entry : fs::directory_iterator(config.partial_dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    auto parsed = core::ParsePartialModelBytes(std::move(bytes));
    ASSERT_TRUE(parsed.ok()) << entry.path() << ": " << parsed.status();
    EXPECT_EQ(parsed.value().state_hash, swept.value().state_hash);
    parts.push_back(std::move(parsed).value());
  }
  ASSERT_EQ(parts.size(),
            static_cast<size_t>(dataset_->num_days() * kNumRanges));
  auto remerged = core::MergePartialModels(dataset_->num_days(), kNumRanges,
                                           parts);
  ASSERT_TRUE(remerged.ok()) << remerged.status();
  EXPECT_EQ(core::MergedModelBytes(remerged.value()),
            core::MergedModelBytes(swept.value().merged));
}

}  // namespace
}  // namespace logmine::eval
