#include "core/l1_activity_miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <utility>
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

// (supported, positive) slot counts per pair, keyed by the pair's names
// in name order.
using PairCounts =
    std::map<std::pair<std::string, std::string>, std::pair<int, int>>;

PairCounts CountsByName(const L1Result& result, const LogStore& store) {
  PairCounts counts;
  for (const L1PairResult& pair : result.pairs) {
    std::string a(store.source_name(pair.a));
    std::string b(store.source_name(pair.b));
    if (b < a) std::swap(a, b);
    counts[{a, b}] = {pair.slots_supported, pair.slots_positive};
  }
  return counts;
}

// L1 runs one test per slot (§3.1), so a slot's outcomes depend on that
// slot's logs alone: not on the window mined around it, nor on the
// dense ids the store gave its sources. Echo<p> repeats p % of Leader's
// logs 30-150 ms later and scatters its other logs uniformly, so many
// per-slot tests are close calls: a draw that moved with the window or
// with the ids would flip some of them.
TEST(L1MinerTest, PerSlotOutcomesDependOnlyOnTheSlot) {
  const TimeMs t0 = 5 * kMillisPerHour;
  const int hours = 4;
  const TimeMs t_end = t0 + hours * kMillisPerHour;
  Rng rng(409);
  std::vector<LogRecord> records;
  auto add = [&records](const std::string& source, TimeMs ts) {
    LogRecord record;
    record.client_ts = ts;
    record.server_ts = ts;
    record.source = source;
    record.message = "x";
    records.push_back(record);
  };
  std::vector<TimeMs> leader;
  for (int i = 0; i < 1600; ++i) {
    leader.push_back(rng.UniformInt(t0, t_end - 1));
    add("Leader", leader.back());
  }
  for (int percent = 20; percent <= 34; percent += 2) {
    for (const TimeMs t : leader) {
      add("Echo" + std::to_string(percent),
          rng.UniformInt(0, 99) < percent ? t + rng.UniformInt(30, 150)
                                          : rng.UniformInt(t0, t_end - 1));
    }
  }
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 400; ++i) {
      add("Loner" + std::to_string(s), rng.UniformInt(t0, t_end - 1));
    }
  }
  LogStore store;
  for (const LogRecord& record : records) {
    ASSERT_TRUE(store.Append(record).ok());
  }
  store.BuildIndex();

  L1Config config;
  config.th_s = 0;  // no pair's positives are zeroed for lack of support
  const L1ActivityMiner miner(config);
  auto whole = miner.Mine(store, t0, t_end);
  ASSERT_TRUE(whole.ok()) << whole.status();
  const auto expected = CountsByName(whole.value(), store);
  // Close calls: some pair is positive in some of its slots but not all.
  EXPECT_TRUE(std::any_of(expected.begin(), expected.end(),
                          [](const auto& entry) {
                            const auto [supported, positive] = entry.second;
                            return positive > 0 && positive < supported;
                          }));

  // (a) Each hour mined alone sums to the whole window.
  PairCounts summed;
  for (int h = 0; h < hours; ++h) {
    auto hour = miner.Mine(store, t0 + h * kMillisPerHour,
                           t0 + (h + 1) * kMillisPerHour);
    ASSERT_TRUE(hour.ok()) << hour.status();
    for (const auto& [names, counts] : CountsByName(hour.value(), store)) {
      summed[names].first += counts.first;
      summed[names].second += counts.second;
    }
  }
  EXPECT_EQ(summed, expected);

  // (b) The same logs met in another source order: other dense ids, the
  // same per-name results.
  LogStore reordered;
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    ASSERT_TRUE(reordered.Append(*it).ok());
  }
  reordered.BuildIndex();
  ASSERT_NE(store.FindSource("Leader").value(),
            reordered.FindSource("Leader").value());
  auto other = miner.Mine(reordered, t0, t_end);
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_EQ(CountsByName(other.value(), reordered), expected);
}

// Renders `result` as an upper-triangular table over the sources that
// appear in it: one row per source a, with one "supported/positive" cell
// per later source b ("-/-" for a pair without support).
std::vector<std::string> RenderPairCounts(const L1Result& result,
                                          const LogStore& store) {
  std::vector<LogStore::SourceId> ids;
  for (const L1PairResult& pair : result.pairs) {
    ids.push_back(pair.a);
    ids.push_back(pair.b);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<std::string> rows;
  for (size_t i = 0; i + 1 < ids.size(); ++i) {
    std::string row = std::string(store.source_name(ids[i])) + ":";
    for (size_t j = i + 1; j < ids.size(); ++j) {
      const auto pair = std::find_if(
          result.pairs.begin(), result.pairs.end(),
          [&](const L1PairResult& p) { return p.a == ids[i] && p.b == ids[j]; });
      row += pair == result.pairs.end()
                 ? " -/-"
                 : " " + std::to_string(pair->slots_supported) + "/" +
                       std::to_string(pair->slots_positive);
    }
    rows.push_back(row);
  }
  return rows;
}

// A store that drives every edge of the near-set membership test, mined
// under both baselines and several slot layouts. The expected counts
// were recorded from the merge-walk implementation that preceded the
// cell index, so any change to which points count as near shows up here.
// The 1-minute configs' counts were recorded with the baselines drawn
// by (source name, absolute slot), L1's one random keying.
// Hours 5-7, in 1-hour slots (4096 ms cells):
//  - Dense: a log every 32 ms through the first slot (112 500 logs), so
//    its near set has ~225 000 boundaries — far more than 16 bits count;
//    DenseEcho is Dense 4 ms later, inside both near sets;
//  - Probe: logs at every offset in [-12, 12] ms around Dense logs that
//    sit on cell starts (and one that does not), so whatever the near
//    radius r (< 16 at this spacing), some Probe points sit exactly on
//    s_i = t - r, e_i = t + r and e_i + 1. The first anchor is the
//    window's begin, so Dense's first interval starts before it;
//  - Edge: sparse, with logs on each slot's first and last milliseconds,
//    so its wide intervals start before slot.begin and end after
//    slot.end; EdgeEcho follows it 30-150 ms later;
//  - with the intensity-proportional baseline and no jitter, nearly
//    every baseline point is a Dense or DenseEcho log, so both of their
//    near sets are empty.
// Hour 9, in 1-minute slots (64 ms cells): Grid logs every 32 ms, and
// Shift<d> is Grid moved by d ms. Every point of one grid sits at the
// same offset from the other's logs, so a pair is positive exactly when
// that offset is inside both near sets: as d passes a radius, the pair
// flips on the boundary point e_i, then e_i + 1.
TEST(L1MinerTest, NearSetMembershipMatchesRecordedCounts) {
  const TimeMs t0 = 5 * kMillisPerHour;
  const TimeMs horizon = 3 * kMillisPerHour;
  constexpr TimeMs kCell = 4096;  // the cell width of a 1-hour slot
  Rng rng(401);
  LogStore store;
  auto add = [&store](const std::string& source, TimeMs ts) {
    LogRecord record;
    record.client_ts = ts;
    record.server_ts = ts;
    record.source = source;
    record.message = "x";
    ASSERT_TRUE(store.Append(record).ok());
  };
  for (TimeMs t = t0; t < t0 + kMillisPerHour; t += 32) {
    add("Dense", t);
    add("DenseEcho", t + 4);
  }
  for (const TimeMs anchor : {t0, t0 + kCell, t0 + 100 * kCell,
                              t0 + 32 * 3001, t0 + 877 * kCell,
                              t0 + 878 * kCell}) {
    for (TimeMs k = -12; k <= 12; ++k) add("Probe", anchor + k);
  }
  for (TimeMs slot = t0; slot < t0 + horizon; slot += kMillisPerHour) {
    for (const TimeMs edge : {slot, slot + 1, slot + kMillisPerHour - 2,
                              slot + kMillisPerHour - 1}) {
      add("Edge", edge);
    }
    AddUniform(&store, "Edge", slot, slot + kMillisPerHour, 76, &rng);
  }
  store.BuildIndex();
  AddFollower(&store, store, store.FindSource("Edge").value(), "EdgeEcho",
              &rng);
  AddUniform(&store, "Loner", t0, t0 + horizon, 750, &rng);
  store.BuildIndex();

  std::vector<std::pair<std::string, L1Config>> configs;
  configs.emplace_back("uniform", L1Config{});
  configs.emplace_back("intensity", L1Config{});
  configs.back().second.baseline = L1Baseline::kIntensityProportional;
  configs.back().second.baseline_jitter = 0;
  configs.emplace_back("adaptive", L1Config{});
  configs.back().second.adaptive_slots = true;

  const TimeMs t1 = 9 * kMillisPerHour;
  const TimeMs grid_end = t1 + 2 * kMillisPerMinute;
  for (TimeMs t = t1; t < grid_end; t += 32) add("Grid", t);
  for (TimeMs d = 0; d < 12; ++d) {
    for (TimeMs t = t1; t < grid_end; t += 32) {
      add("Shift" + std::to_string(d), t + d);
    }
  }
  store.BuildIndex();
  configs.emplace_back("grid uniform", L1Config{});
  configs.back().second.slot_length = kMillisPerMinute;
  configs.emplace_back("grid intensity", configs.back().second);
  configs.back().second.baseline = L1Baseline::kIntensityProportional;

  const std::vector<std::vector<std::string>> expected = {
      // uniform
      {
          "Dense: 1/1 1/0 1/0 1/0 1/0",
          "DenseEcho: 1/0 1/0 1/0 1/0",
          "Probe: 1/0 1/0 1/0",
          "Edge: 3/3 3/0",
          "EdgeEcho: 3/0",
      },
      // intensity
      {
          "Dense: 1/0 1/0 1/0 1/0 1/0",
          "DenseEcho: 1/0 1/0 1/0 1/0",
          "Probe: 1/0 1/0 1/0",
          "Edge: 3/3 3/0",
          "EdgeEcho: 3/0",
      },
      // adaptive
      {
          "Dense: 2/2 2/0 2/0 2/0 2/0",
          "DenseEcho: 2/0 2/0 2/0 2/0",
          "Probe: 2/0 2/0 2/0",
          "Edge: 4/4 4/0",
          "EdgeEcho: 4/0",
      },
      // grid uniform
      {
          "Grid: 2/2 2/2 2/2 2/2 2/2 2/2 2/2 2/0 2/0 2/0 2/0 2/0",
          "Shift0: 2/2 2/2 2/2 2/2 2/2 2/2 2/0 2/0 2/0 2/0 2/0",
          "Shift1: 2/2 2/2 2/2 2/2 2/2 2/0 2/0 2/0 2/0 2/0",
          "Shift2: 2/2 2/2 2/2 2/2 2/2 2/1 2/0 2/0 2/0",
          "Shift3: 2/2 2/2 2/2 2/2 2/2 2/1 2/0 2/0",
          "Shift4: 2/2 2/2 2/2 2/2 2/2 2/0 2/0",
          "Shift5: 2/2 2/2 2/2 2/2 2/2 2/1",
          "Shift6: 2/2 2/2 2/2 2/2 2/2",
          "Shift7: 2/2 2/2 2/2 2/2",
          "Shift8: 2/2 2/2 2/2",
          "Shift9: 2/2 2/2",
          "Shift10: 2/2",
      },
      // grid intensity
      {
          "Grid: 2/2 2/2 2/2 2/2 2/2 2/2 2/1 2/0 2/0 2/0 2/0 2/0",
          "Shift0: 2/2 2/2 2/2 2/2 2/2 2/1 2/0 2/0 2/0 2/0 2/0",
          "Shift1: 2/2 2/2 2/2 2/2 2/2 2/2 2/0 2/0 2/0 2/0",
          "Shift2: 2/2 2/2 2/2 2/2 2/2 2/2 2/0 2/0 2/0",
          "Shift3: 2/2 2/2 2/2 2/2 2/2 2/1 2/0 2/0",
          "Shift4: 2/2 2/2 2/2 2/2 2/2 2/2 2/0",
          "Shift5: 2/2 2/2 2/2 2/2 2/2 2/0",
          "Shift6: 2/2 2/2 2/2 2/2 2/2",
          "Shift7: 2/2 2/2 2/2 2/2",
          "Shift8: 2/2 2/2 2/2",
          "Shift9: 2/2 2/2",
          "Shift10: 2/2",
      },
  };
  ASSERT_EQ(expected.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    const auto& [name, config] = configs[i];
    const bool grid = name.starts_with("grid");
    auto result = L1ActivityMiner(config).Mine(
        store, grid ? t1 : t0, grid ? grid_end : t0 + horizon);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(RenderPairCounts(result.value(), store), expected[i]) << name;
  }
}

}  // namespace
}  // namespace logmine::core
