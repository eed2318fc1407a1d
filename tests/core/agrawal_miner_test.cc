#include "core/agrawal_miner.h"

#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace logmine::core {
namespace {

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

AgrawalConfig FastConfig() {
  AgrawalConfig config;
  config.minlogs = 50;
  config.sample_size = 300;
  return config;
}

TEST(AgrawalMinerTest, TestSlotDetectsTypicalDelays) {
  Rng rng(1);
  std::vector<TimeMs> a, b;
  for (int i = 0; i < 400; ++i) {
    const TimeMs t = rng.UniformInt(0, kMillisPerHour - 1000);
    a.push_back(t);
    b.push_back(t + rng.UniformInt(80, 160));  // typical delay band
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  AgrawalDelayMiner miner(FastConfig());
  EXPECT_TRUE(miner.TestSlot(a, b, 0, kMillisPerHour, 1));
}

TEST(AgrawalMinerTest, TestSlotNegativeOnIndependentStreams) {
  int positives = 0;
  for (uint64_t seed = 0; seed < 15; ++seed) {
    Rng rng(100 + seed);
    std::vector<TimeMs> a, b;
    for (int i = 0; i < 400; ++i) {
      a.push_back(rng.UniformInt(0, kMillisPerHour - 1));
      b.push_back(rng.UniformInt(0, kMillisPerHour - 1));
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    AgrawalDelayMiner miner(FastConfig());
    positives += miner.TestSlot(a, b, 0, kMillisPerHour, seed);
  }
  EXPECT_LE(positives, 2);
}

TEST(AgrawalMinerTest, TestSlotDegeneratesGracefully) {
  AgrawalDelayMiner miner(FastConfig());
  const std::vector<TimeMs> none, five{5}, six{6}, one{1};
  const std::vector<TimeMs> triple{1, 2, 3}, sparse{2, 100000};
  EXPECT_FALSE(miner.TestSlot(none, triple, 0, 1000, 0));
  EXPECT_FALSE(miner.TestSlot(triple, none, 0, 1000, 0));
  EXPECT_FALSE(miner.TestSlot(five, six, 0, 0, 0));
  // Too few delays within the window.
  EXPECT_FALSE(miner.TestSlot(one, sparse, 0, kMillisPerHour, 0));
}

TEST(AgrawalMinerTest, MineFindsDependentPair) {
  const TimeMs horizon = 4 * kMillisPerHour;
  Rng rng(7);
  LogStore store;
  AddUniform(&store, "Caller", 0, horizon, 800, &rng);
  AddUniform(&store, "Loner", 0, horizon, 800, &rng);
  store.BuildIndex();
  const auto caller = store.FindSource("Caller").value();
  // A copy: appending invalidates the index view.
  const std::span<const TimeMs> calls = store.SourceTimestamps(caller);
  for (TimeMs t : std::vector<TimeMs>(calls.begin(), calls.end())) {
    LogRecord record;
    record.client_ts = t + rng.UniformInt(60, 200);
    record.server_ts = record.client_ts;
    record.source = "Callee";
    record.message = "y";
    ASSERT_TRUE(store.Append(record).ok());
  }
  store.BuildIndex();

  AgrawalDelayMiner miner(FastConfig());
  auto result = miner.Mine(store, 0, horizon);
  ASSERT_TRUE(result.ok());
  const DependencyModel deps = result.value().Dependencies(store);
  EXPECT_TRUE(deps.Contains(MakeUnorderedPair("Caller", "Callee")));
  EXPECT_FALSE(deps.Contains(MakeUnorderedPair("Caller", "Loner")));
}

TEST(AgrawalMinerTest, DegradesWithParallelism) {
  // The authors' own caveat (§2.1): accuracy is inversely proportional
  // to the degree of parallelism. Embed the same dependent pair in an
  // increasingly busy environment and watch per-slot positives fall.
  auto positives_at = [](int noise_per_hour) {
    Rng rng(42);
    const TimeMs horizon = 2 * kMillisPerHour;
    LogStore store;
    AddUniform(&store, "A", 0, horizon,
               2 * noise_per_hour, &rng);  // A is also busier
    store.BuildIndex();
    const auto a = store.FindSource("A").value();
    int added = 0;
    const std::span<const TimeMs> calls = store.SourceTimestamps(a);
    for (TimeMs t : std::vector<TimeMs>(calls.begin(), calls.end())) {
      if (++added % 4 != 0) continue;  // B answers a quarter of A's calls
      LogRecord record;
      record.client_ts = t + 100;
      record.server_ts = record.client_ts;
      record.source = "B";
      record.message = "y";
      EXPECT_TRUE(store.Append(record).ok());
    }
    // Concurrent independent chatter from B itself.
    AddUniform(&store, "B", 0, horizon, 2 * noise_per_hour, &rng);
    store.BuildIndex();
    AgrawalConfig config;
    config.minlogs = 30;
    AgrawalDelayMiner miner(config);
    auto result = miner.Mine(store, 0, horizon);
    EXPECT_TRUE(result.ok());
    int positive_slots = 0;
    for (const AgrawalPairResult& pair : result.value().pairs) {
      positive_slots += pair.slots_positive;
    }
    return positive_slots;
  };
  // The signal-to-noise ratio of the delay histogram falls with load;
  // detection must not improve when the parallel load explodes.
  EXPECT_GE(positives_at(300), positives_at(20000));
}

TEST(AgrawalMinerTest, RequiresIndexAndValidInterval) {
  LogStore store;
  LogRecord record;
  record.source = "A";
  ASSERT_TRUE(store.Append(record).ok());
  AgrawalDelayMiner miner(FastConfig());
  EXPECT_FALSE(miner.Mine(store, 0, 100).ok());
  store.BuildIndex();
  EXPECT_FALSE(miner.Mine(store, 100, 100).ok());
}

}  // namespace
}  // namespace logmine::core
