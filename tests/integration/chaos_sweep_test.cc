// The tentpole acceptance property of the sharded sweep supervisor: a
// multi-day L1 sweep partitioned into (day × pair-range) shards and run
// under seeded chaos — workers killed, hung, delivering corrupt
// partial models, or merely slow — converges to
// bytes identical to a fault-free run whenever every fault is
// recoverable, and to an exactly-accounted degraded model when it is
// not. Identity is asserted on MergedModelBytes, the serialized form
// the supervisor itself merges and persists.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/l1_activity_miner.h"
#include "core/serialization.h"
#include "eval/dataset.h"
#include "eval/shard_supervisor.h"
#include "simulation/crash_injector.h"
#include "util/rng.h"

namespace logmine::eval {
namespace {

namespace fs = std::filesystem;

constexpr int kNumRanges = 3;

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
  // Seeded fault plans with no permanent faults: every kill, hang,
  // corruption and slowdown is eventually retried away, so
  // the merged bytes must equal the fault-free reference — the sharded
  // analogue of the crash-recovery byte-identity contract.
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    sim::ShardFaultPlanOptions options;
    options.max_faulty_shards = 3;
    options.max_times = 2;
    options.permanent_fraction = 0.0;
    const sim::ShardFaultPlan plan = sim::RandomShardFaultPlan(
        &rng, dataset_->num_days(), kNumRanges, options);
    sim::ShardFaultInjector injector(plan);
    ASSERT_TRUE(injector.PermanentlyPoisoned().empty());

    ShardSupervisorConfig config = Supervisor();
    config.faults = &injector;
    auto chaotic = RunL1ShardedSweep(*dataset_, L1Cfg(), config);
    ASSERT_TRUE(chaotic.ok()) << "seed " << seed << ": " << chaotic.status();
    EXPECT_EQ(chaotic.value().outcome, SweepOutcome::kComplete) << seed;
    EXPECT_TRUE(chaotic.value().merged.coverage.complete()) << seed;
    EXPECT_EQ(core::MergedModelBytes(chaotic.value().merged), *reference_)
        << "seed " << seed << " diverged from the fault-free run";
    // Slow shards complete without failing, so a plan may inject zero
    // failures; anything the plan did break must show in the stats.
    EXPECT_GE(chaotic.value().stats.attempts,
              static_cast<int64_t>(dataset_->num_days() * kNumRanges))
        << seed;
  }
}

TEST_F(ChaosSweepTest, PermanentFaultsDegradeWithExactCoverageAccounting) {
  // Two permanently broken shards: the sweep must degrade (not fail,
  // not lie), report exactly those cells missing, and deliver the union
  // of every surviving shard's true model.
  sim::ShardFaultPlan plan;
  plan.faults.push_back({/*day=*/0, /*range_index=*/1,
                         sim::ShardFault::kFailTransient,
                         sim::kShardFaultAlways});
  plan.faults.push_back({/*day=*/1, /*range_index=*/2, sim::ShardFault::kHang,
                         sim::kShardFaultAlways, /*slow_ms=*/5});
  sim::ShardFaultInjector injector(plan);

  ShardSupervisorConfig config = Supervisor();
  config.faults = &injector;
  config.partial_dir = FreshDir("chaos_partials");
  auto degraded = RunL1ShardedSweep(*dataset_, L1Cfg(), config);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded.value().outcome, SweepOutcome::kDegraded);

  // Coverage names exactly the injector's permanently poisoned cells.
  EXPECT_EQ(degraded.value().merged.coverage.MissingCells(),
            injector.PermanentlyPoisoned());
  EXPECT_EQ(degraded.value().stats.shards_poisoned, 2);
  EXPECT_EQ(degraded.value().stats.breaker_trips, 2);

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
      expected = expected.Union(sliced.value().Dependencies(dataset_->store));
    }
  }
  EXPECT_EQ(degraded.value().merged.model.pairs(), expected.pairs());

  // Surviving partials were persisted; poisoned cells were not.
  int persisted = 0;
  for ([[maybe_unused]] const auto& entry :
       fs::directory_iterator(config.partial_dir)) {
    ++persisted;
  }
  EXPECT_EQ(persisted, dataset_->num_days() * kNumRanges - 2);
  EXPECT_FALSE(fs::exists(fs::path(config.partial_dir) / "partial-d0-r1.snap"));
  EXPECT_TRUE(fs::exists(fs::path(config.partial_dir) / "partial-d0-r0.snap"));
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
