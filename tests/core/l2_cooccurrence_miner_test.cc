#include "core/l2_cooccurrence_miner.h"

#include <gtest/gtest.h>

#include <string>

namespace logmine::core {
namespace {

LogRecord Rec(TimeMs ts, std::string source, std::string user) {
  LogRecord record;
  record.client_ts = ts;
  record.server_ts = ts;
  record.source = std::move(source);
  record.user = std::move(user);
  record.message = "x";
  return record;
}

// The paper's running example (figure 3): one session where the client
// A2 calls A1, then twice A3, which in turn calls A4. The log sequence is
// a2 a1 a2 a3 a4 a2 a3 a4 [pause 0.5s] a2.
LogStore PaperExampleStore() {
  LogStore store;
  const std::vector<std::pair<TimeMs, const char*>> logs = {
      {0, "A2"},   {100, "A1"}, {200, "A2"}, {300, "A3"}, {400, "A4"},
      {500, "A2"}, {600, "A3"}, {700, "A4"}, {1200, "A2"},
  };
  for (const auto& [ts, source] : logs) {
    EXPECT_TRUE(store.Append(Rec(ts, source, "user")).ok());
  }
  store.BuildIndex();
  return store;
}

L2Config PermissiveConfig(TimeMs timeout) {
  L2Config config;
  config.timeout = timeout;
  config.min_cooccurrence = 1;
  config.min_cooccurrence_per_session = 0;
  config.session.min_logs = 2;
  config.session.max_gap = 60 * kMillisPerMinute;
  return config;
}

const L2PairScore* FindScore(const L2Result& result, const LogStore& store,
                             std::string_view a, std::string_view b) {
  for (const L2PairScore& score : result.scored) {
    if (store.source_name(score.a) == a && store.source_name(score.b) == b) {
      return &score;
    }
  }
  return nullptr;
}

TEST(L2MinerTest, PaperExampleBigramCounts) {
  const LogStore store = PaperExampleStore();
  L2CooccurrenceMiner miner(PermissiveConfig(/*timeout=*/0));  // infinity
  auto result = miner.Mine(store, 0, 10000);
  ASSERT_TRUE(result.ok());
  // All 8 bigrams of the paper's example (none dropped at infinity).
  EXPECT_EQ(result.value().num_bigrams, 8);
  // Observed types: (A2,A1),(A1,A2),(A2,A3)x2,(A3,A4)x2,(A4,A2)x2.
  EXPECT_EQ(result.value().scored.size(), 5u);
}

TEST(L2MinerTest, PaperExampleContingencyTableForA2A3) {
  // Figure 4: the table for (A, B) = (A2, A3) is [[2, 0], [1, 5]].
  const LogStore store = PaperExampleStore();
  L2CooccurrenceMiner miner(PermissiveConfig(0));
  auto result = miner.Mine(store, 0, 10000);
  ASSERT_TRUE(result.ok());
  const L2PairScore* score =
      FindScore(result.value(), store, "A2", "A3");
  ASSERT_NE(score, nullptr);
  EXPECT_EQ(score->table.o11, 2);
  EXPECT_EQ(score->table.o12, 1);
  EXPECT_EQ(score->table.o21, 0);
  EXPECT_EQ(score->table.o22, 5);
}

TEST(L2MinerTest, PaperExampleTimeoutDropsLastBigram) {
  // "the last bigram (A4, A2) would be ignored for any timeout value
  // between 0 and 0.5 seconds" — the gap before the final a2 is 500 ms.
  const LogStore store = PaperExampleStore();
  L2CooccurrenceMiner miner(PermissiveConfig(/*timeout=*/400));
  auto result = miner.Mine(store, 0, 10000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_bigrams, 7);
  const L2PairScore* score =
      FindScore(result.value(), store, "A4", "A2");
  ASSERT_NE(score, nullptr);
  EXPECT_EQ(score->table.o11, 1);  // only the first (a4, a2) remains
}

TEST(L2MinerTest, SameSourceBigramsSkipped) {
  LogStore store;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.Append(Rec(i * 10, "A", "u")).ok());
  }
  store.BuildIndex();
  L2CooccurrenceMiner miner(PermissiveConfig(0));
  auto result = miner.Mine(store, 0, 1000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_bigrams, 0);
  EXPECT_TRUE(result.value().scored.empty());
}

TEST(L2MinerTest, DetectsStrongAssociation) {
  // 40 sessions of the pattern C -> S (caller/callee adjacency), plus
  // background pairs, must yield a significant (C, S) dependency.
  LogStore store;
  TimeMs t = 0;
  for (int s = 0; s < 40; ++s) {
    const std::string user = "u" + std::to_string(s);
    ASSERT_TRUE(store.Append(Rec(t, "C", user)).ok());
    ASSERT_TRUE(store.Append(Rec(t + 50, "S", user)).ok());
    ASSERT_TRUE(store.Append(Rec(t + 400, "X", user)).ok());
    ASSERT_TRUE(store.Append(Rec(t + 800, "Y", user)).ok());
    t += 10000;
  }
  store.BuildIndex();
  L2Config config = PermissiveConfig(1000);
  config.min_cooccurrence = 5;
  L2CooccurrenceMiner miner(config);
  auto result = miner.Mine(store, 0, t + 1000);
  ASSERT_TRUE(result.ok());
  const DependencyModel deps = result.value().Dependencies(store);
  EXPECT_TRUE(deps.Contains(MakeUnorderedPair("C", "S")));
}

TEST(L2MinerTest, MinCooccurrenceFloorFiltersRarePairs) {
  const LogStore store = PaperExampleStore();
  L2Config config = PermissiveConfig(0);
  config.min_cooccurrence = 2;
  L2CooccurrenceMiner miner(config);
  auto result = miner.Mine(store, 0, 10000);
  ASSERT_TRUE(result.ok());
  // Only the three pair types with o11 = 2 survive the floor.
  EXPECT_EQ(result.value().scored.size(), 3u);
}

TEST(L2MinerTest, PerSessionFloorScalesWithSessionCount) {
  const LogStore store = PaperExampleStore();
  L2Config config = PermissiveConfig(0);
  config.min_cooccurrence = 1;
  config.min_cooccurrence_per_session = 3.0;  // 1 session -> floor 3
  L2CooccurrenceMiner miner(config);
  auto result = miner.Mine(store, 0, 10000);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().scored.empty());  // all o11 <= 2
}

TEST(L2MinerTest, DependenciesAreUndirected) {
  L2Result result;
  L2PairScore forward;
  forward.a = 1;
  forward.b = 0;
  forward.dependent = true;
  result.scored.push_back(forward);
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(0, "Alpha", "")).ok());
  ASSERT_TRUE(store.Append(Rec(1, "Beta", "")).ok());
  const DependencyModel deps = result.Dependencies(store);
  EXPECT_TRUE(deps.Contains(MakeUnorderedPair("Alpha", "Beta")));
}

TEST(L2MinerTest, RequiresBuiltIndex) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(0, "A", "u")).ok());
  L2CooccurrenceMiner miner(PermissiveConfig(0));
  EXPECT_FALSE(miner.Mine(store, 0, 100).ok());
}

TEST(L2MinerTest, RejectsBadAlpha) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(0, "A", "u")).ok());
  store.BuildIndex();
  L2Config config = PermissiveConfig(0);
  config.alpha = 1.5;
  L2CooccurrenceMiner miner(config);
  EXPECT_FALSE(miner.Mine(store, 0, 100).ok());
}

TEST(L2MinerTest, PearsonVariantRuns) {
  const LogStore store = PaperExampleStore();
  L2Config config = PermissiveConfig(0);
  config.test = AssociationTest::kPearson;
  L2CooccurrenceMiner miner(config);
  auto result = miner.Mine(store, 0, 10000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().scored.size(), 5u);
}

}  // namespace
}  // namespace logmine::core
