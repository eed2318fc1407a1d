#include "core/l1_activity_miner.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "util/rng.h"

namespace logmine::core {
namespace {

// Appends `count` logs of `source` uniformly over [begin, end).
void AddUniform(LogStore* store, const std::string& source, TimeMs begin,
                TimeMs end, int count, Rng* rng) {
  for (int i = 0; i < count; ++i) {
    LogRecord record;
    record.client_ts = rng->UniformInt(begin, end - 1);
    record.server_ts = record.client_ts;
    record.source = source;
    record.message = "x";
    ASSERT_TRUE(store->Append(record).ok());
  }
}

// Appends logs of `follower` 30-150 ms after each log of `leader`.
void AddFollower(LogStore* store, const LogStore& base,
                 LogStore::SourceId leader, const std::string& follower,
                 Rng* rng) {
  // A copy: `base` may be `store`, and appending invalidates the view.
  const std::span<const TimeMs> leads = base.SourceTimestamps(leader);
  for (TimeMs t : std::vector<TimeMs>(leads.begin(), leads.end())) {
    LogRecord record;
    record.client_ts = t + rng->UniformInt(30, 150);
    record.server_ts = record.client_ts;
    record.source = follower;
    record.message = "y";
    ASSERT_TRUE(store->Append(record).ok());
  }
}

L1Config FastConfig() {
  L1Config config;
  config.slot_length = kMillisPerHour;
  config.minlogs = 50;
  config.test.sample_size = 100;
  return config;
}

TEST(L1MinerTest, DetectsCallerCalleePairAndSkipsIndependents) {
  const TimeMs horizon = 6 * kMillisPerHour;
  Rng rng(101);
  LogStore store;
  AddUniform(&store, "Caller", 0, horizon, 600, &rng);
  AddUniform(&store, "Loner", 0, horizon, 600, &rng);
  store.BuildIndex();
  AddFollower(&store, store, store.FindSource("Caller").value(), "Callee",
              &rng);
  store.BuildIndex();

  L1ActivityMiner miner(FastConfig());
  auto result = miner.Mine(store, 0, horizon);
  ASSERT_TRUE(result.ok());
  const DependencyModel deps = result.value().Dependencies(store);
  EXPECT_TRUE(deps.Contains(MakeUnorderedPair("Caller", "Callee")));
  EXPECT_FALSE(deps.Contains(MakeUnorderedPair("Caller", "Loner")));
  EXPECT_FALSE(deps.Contains(MakeUnorderedPair("Callee", "Loner")));
}

TEST(L1MinerTest, SupportAndRatioBookkeeping) {
  const TimeMs horizon = 4 * kMillisPerHour;
  Rng rng(102);
  LogStore store;
  AddUniform(&store, "A", 0, horizon, 400, &rng);
  // B is active only in the first two slots.
  AddUniform(&store, "B", 0, 2 * kMillisPerHour, 200, &rng);
  store.BuildIndex();

  L1ActivityMiner miner(FastConfig());
  auto result = miner.Mine(store, 0, horizon);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().slots_total, 4);
  ASSERT_EQ(result.value().pairs.size(), 1u);
  const L1PairResult& pair = result.value().pairs[0];
  EXPECT_EQ(pair.slots_supported, 2);  // B misses minlogs in slots 3-4
  EXPECT_LE(pair.slots_positive, pair.slots_supported);
}

TEST(L1MinerTest, MinlogsSkipsSparseSources) {
  const TimeMs horizon = 2 * kMillisPerHour;
  Rng rng(103);
  LogStore store;
  AddUniform(&store, "Busy", 0, horizon, 500, &rng);
  AddUniform(&store, "Sparse", 0, horizon, 20, &rng);  // < minlogs per slot
  store.BuildIndex();

  L1ActivityMiner miner(FastConfig());
  auto result = miner.Mine(store, 0, horizon);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().pairs.empty());  // pair never supported
}

TEST(L1MinerTest, SupportThresholdGatesDecision) {
  const TimeMs horizon = 10 * kMillisPerHour;
  Rng rng(104);
  LogStore store;
  // Correlated pair, but only active in 2 of 10 slots.
  AddUniform(&store, "A", 0, 2 * kMillisPerHour, 400, &rng);
  store.BuildIndex();
  AddFollower(&store, store, store.FindSource("A").value(), "B", &rng);
  store.BuildIndex();

  L1Config config = FastConfig();
  config.th_s = 0.3;  // requires >= 3 of 10 slots
  L1ActivityMiner miner(config);
  auto result = miner.Mine(store, 0, horizon);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().pairs.size(), 1u);
  EXPECT_EQ(result.value().pairs[0].slots_supported, 2);
  EXPECT_FALSE(result.value().pairs[0].dependent);  // support too low

  config.th_s = 0.2;  // 2 of 10 slots suffice
  L1ActivityMiner looser(config);
  auto result2 = looser.Mine(store, 0, horizon);
  ASSERT_TRUE(result2.ok());
  EXPECT_TRUE(result2.value().pairs[0].dependent);
}

TEST(L1MinerTest, DeterministicAcrossRuns) {
  const TimeMs horizon = 3 * kMillisPerHour;
  Rng rng(105);
  LogStore store;
  AddUniform(&store, "A", 0, horizon, 300, &rng);
  AddUniform(&store, "B", 0, horizon, 300, &rng);
  store.BuildIndex();

  L1ActivityMiner miner(FastConfig());
  auto first = miner.Mine(store, 0, horizon);
  auto second = miner.Mine(store, 0, horizon);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first.value().pairs.size(), second.value().pairs.size());
  for (size_t i = 0; i < first.value().pairs.size(); ++i) {
    EXPECT_EQ(first.value().pairs[i].slots_positive,
              second.value().pairs[i].slots_positive);
  }
}

TEST(L1MinerTest, ParallelMiningIsBitIdenticalToSerial) {
  const TimeMs horizon = 6 * kMillisPerHour;
  Rng rng(211);
  LogStore store;
  for (int s = 0; s < 6; ++s) {
    AddUniform(&store, "App" + std::to_string(s), 0, horizon, 500, &rng);
  }
  store.BuildIndex();
  AddFollower(&store, store, store.FindSource("App0").value(), "Echo", &rng);
  store.BuildIndex();

  L1Config serial = FastConfig();
  serial.num_threads = 1;
  L1Config parallel = FastConfig();
  parallel.num_threads = 4;
  auto a = L1ActivityMiner(serial).Mine(store, 0, horizon);
  auto b = L1ActivityMiner(parallel).Mine(store, 0, horizon);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().pairs.size(), b.value().pairs.size());
  for (size_t i = 0; i < a.value().pairs.size(); ++i) {
    EXPECT_EQ(a.value().pairs[i].a, b.value().pairs[i].a);
    EXPECT_EQ(a.value().pairs[i].b, b.value().pairs[i].b);
    EXPECT_EQ(a.value().pairs[i].slots_supported,
              b.value().pairs[i].slots_supported);
    EXPECT_EQ(a.value().pairs[i].slots_positive,
              b.value().pairs[i].slots_positive);
    EXPECT_EQ(a.value().pairs[i].dependent, b.value().pairs[i].dependent);
  }
  // num_threads = 0 (auto) must also agree.
  L1Config automatic = FastConfig();
  automatic.num_threads = 0;
  auto c = L1ActivityMiner(automatic).Mine(store, 0, horizon);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().Dependencies(store).pairs(),
            a.value().Dependencies(store).pairs());
}

TEST(L1MinerTest, PairRangesPartitionTheFullResult) {
  // Property behind the sharded sweep: for any slice count, the
  // per-slice results are disjoint, their union is the unsliced result,
  // and every shared pair is byte-identical — randomness is keyed by
  // (seed, slot, source), never by which pairs ride along.
  const TimeMs horizon = 6 * kMillisPerHour;
  Rng rng(311);
  LogStore store;
  for (int s = 0; s < 7; ++s) {
    AddUniform(&store, "App" + std::to_string(s), 0, horizon, 500, &rng);
  }
  store.BuildIndex();
  AddFollower(&store, store, store.FindSource("App1").value(), "Echo", &rng);
  store.BuildIndex();

  L1ActivityMiner miner(FastConfig());
  auto full = miner.Mine(store, 0, horizon);
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(full.value().pairs.empty());

  for (uint32_t count : {1u, 2u, 3u, 5u, 64u}) {
    std::vector<L1PairResult> combined;
    int64_t tested = 0, pruned = 0;
    DependencyModel deps_union;
    for (uint32_t index = 0; index < count; ++index) {
      auto slice = miner.Mine(store, 0, horizon, PairRange{index, count});
      ASSERT_TRUE(slice.ok()) << slice.status();
      EXPECT_EQ(slice.value().slots_total, full.value().slots_total);
      combined.insert(combined.end(), slice.value().pairs.begin(),
                      slice.value().pairs.end());
      tested += slice.value().pairs_tested;
      pruned += slice.value().pairs_pruned;
      deps_union = deps_union.Union(slice.value().Dependencies(store));
    }
    // Slices are contiguous in (a, b) rank order, so concatenating them
    // in index order reproduces the full listing exactly.
    ASSERT_EQ(combined.size(), full.value().pairs.size()) << count;
    for (size_t i = 0; i < combined.size(); ++i) {
      EXPECT_EQ(combined[i].a, full.value().pairs[i].a);
      EXPECT_EQ(combined[i].b, full.value().pairs[i].b);
      EXPECT_EQ(combined[i].slots_supported,
                full.value().pairs[i].slots_supported);
      EXPECT_EQ(combined[i].slots_positive,
                full.value().pairs[i].slots_positive);
      EXPECT_EQ(combined[i].dependent, full.value().pairs[i].dependent);
    }
    EXPECT_EQ(tested, full.value().pairs_tested) << count;
    EXPECT_EQ(pruned, full.value().pairs_pruned) << count;
    EXPECT_EQ(deps_union.pairs(), full.value().Dependencies(store).pairs())
        << count;
  }
}

TEST(L1MinerTest, RejectsInvalidPairRange) {
  Rng rng(312);
  LogStore store;
  AddUniform(&store, "A", 0, kMillisPerHour, 100, &rng);
  store.BuildIndex();
  L1ActivityMiner miner(FastConfig());
  EXPECT_FALSE(miner.Mine(store, 0, kMillisPerHour, PairRange{0, 0}).ok());
  EXPECT_FALSE(miner.Mine(store, 0, kMillisPerHour, PairRange{2, 2}).ok());
}

TEST(L1MinerTest, RequiresIndexAndValidInterval) {
  LogStore store;
  LogRecord record;
  record.source = "A";
  ASSERT_TRUE(store.Append(record).ok());
  L1ActivityMiner miner(FastConfig());
  EXPECT_FALSE(miner.Mine(store, 0, 100).ok());  // index not built
  store.BuildIndex();
  EXPECT_FALSE(miner.Mine(store, 100, 100).ok());  // empty interval
}

TEST(L1MinerTest, TestSlotExposesBothSamples) {
  const TimeMs horizon = kMillisPerHour;
  Rng rng(106);
  LogStore store;
  AddUniform(&store, "A", 0, horizon, 400, &rng);
  store.BuildIndex();
  AddFollower(&store, store, store.FindSource("A").value(), "B", &rng);
  store.BuildIndex();

  L1ActivityMiner miner(FastConfig());
  const auto outcome = miner.TestSlot(
      store, store.FindSource("A").value(), store.FindSource("B").value(),
      0, horizon, /*salt=*/1);
  EXPECT_TRUE(outcome.positive);
  EXPECT_FALSE(outcome.sample_random.empty());
  EXPECT_FALSE(outcome.sample_target.empty());
}

TEST(L1MinerTest, FalsePositiveRateOnIndependentLandscapeIsLow) {
  // Property: many independent sources, no pair should be declared
  // dependent (the per-slot test is 95%-level but the both-directions +
  // th_pr composition makes pair-level false positives rare).
  const TimeMs horizon = 6 * kMillisPerHour;
  Rng rng(107);
  LogStore store;
  for (int s = 0; s < 8; ++s) {
    AddUniform(&store, "App" + std::to_string(s), 0, horizon, 700, &rng);
  }
  store.BuildIndex();
  L1ActivityMiner miner(FastConfig());
  auto result = miner.Mine(store, 0, horizon);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().Dependencies(store).size(), 0u);
}

}  // namespace
}  // namespace logmine::core
