// The hard requirement of the shared-executor design: every miner, and
// the pipeline façade over them, must return byte-identical results for
// any thread count. These tests run each on a simulated multi-source
// corpus with num_threads in {1, 2, 4, 8} and compare full result
// structures field by field.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/agrawal_miner.h"
#include "core/l1_activity_miner.h"
#include "core/l2_cooccurrence_miner.h"
#include "core/l3_text_miner.h"
#include "core/pipeline.h"
#include "util/rng.h"

namespace logmine::core {
namespace {

constexpr TimeMs kHorizon = 6 * kMillisPerHour;
const int kThreadCounts[] = {1, 2, 4, 8};

ServiceVocabulary Vocab() {
  ServiceVocabulary vocabulary;
  vocabulary.entries.push_back({"BILLING", "http://srv01/billing"});
  vocabulary.entries.push_back({"LABRES", "http://srv02/labres"});
  vocabulary.entries.push_back({"PHARMA", "http://srv03/pharma"});
  return vocabulary;
}

// A corpus exercising every miner: several uniformly active sources, a
// caller/callee pair for L1/Agrawal, user context on most logs for
// L2's sessions, and messages that cite the vocabulary or match stop
// patterns for L3.
LogStore SimulatedCorpus() {
  Rng rng(424242);
  LogStore store;
  auto append = [&](TimeMs ts, const std::string& source,
                    const std::string& user, const std::string& message) {
    LogRecord record;
    record.client_ts = ts;
    record.server_ts = ts;
    record.source = source;
    record.user = user;
    record.message = message;
    ASSERT_TRUE(store.Append(record).ok());
  };
  const std::vector<std::string> messages = {
      "calling BILLING for invoice",
      "lookup in LABRES done",
      "Received call transfer",  // stop pattern
      "sent keepalive to peer",  // stop pattern
      "PHARMA order placed",
      "routine maintenance tick",
  };
  for (int s = 0; s < 6; ++s) {
    const std::string source = "App" + std::to_string(s);
    for (int i = 0; i < 500; ++i) {
      const TimeMs ts = rng.UniformInt(0, kHorizon - 1);
      const std::string user =
          rng.Bernoulli(0.8) ? "user" + std::to_string(rng.UniformInt(0, 7))
                             : "";
      append(ts, source, user,
             messages[static_cast<size_t>(
                 rng.UniformInt(0, static_cast<int64_t>(messages.size()) - 1))]);
    }
  }
  store.BuildIndex();
  // A follower source 30-150 ms behind App0, for the timing miners.
  // A copy: appending invalidates the index view.
  const std::span<const TimeMs> leader = store.SourceTimestamps(0);
  for (TimeMs t : std::vector<TimeMs>(leader.begin(), leader.end())) {
    append(t + rng.UniformInt(30, 150), "Echo", "user0",
           "calling BILLING for invoice");
  }
  store.BuildIndex();
  return store;
}

template <typename Config, typename Miner, typename Result>
std::vector<Result> MineAtEachThreadCount(const LogStore& store,
                                          Config config) {
  std::vector<Result> results;
  for (int num_threads : kThreadCounts) {
    config.num_threads = num_threads;
    Miner miner(config);
    auto mined = miner.Mine(store, 0, kHorizon);
    EXPECT_TRUE(mined.ok()) << mined.status();
    results.push_back(std::move(mined).value());
  }
  return results;
}

TEST(ParallelDeterminismTest, L1IdenticalAcrossThreadCounts) {
  const LogStore store = SimulatedCorpus();
  L1Config config;
  config.minlogs = 20;
  config.test.sample_size = 100;
  const auto results =
      MineAtEachThreadCount<L1Config, L1ActivityMiner, L1Result>(store,
                                                                 config);
  const L1Result& reference = results.front();
  for (const L1Result& other : results) {
    ASSERT_EQ(other.pairs.size(), reference.pairs.size());
    EXPECT_EQ(other.slots_total, reference.slots_total);
    for (size_t i = 0; i < reference.pairs.size(); ++i) {
      EXPECT_EQ(other.pairs[i].a, reference.pairs[i].a);
      EXPECT_EQ(other.pairs[i].b, reference.pairs[i].b);
      EXPECT_EQ(other.pairs[i].slots_supported,
                reference.pairs[i].slots_supported);
      EXPECT_EQ(other.pairs[i].slots_positive,
                reference.pairs[i].slots_positive);
      EXPECT_EQ(other.pairs[i].positive_ratio,
                reference.pairs[i].positive_ratio);
      EXPECT_EQ(other.pairs[i].dependent, reference.pairs[i].dependent);
    }
  }
}

// Support pruning only skips tests whose outcome cannot affect the
// result (pairs that cannot reach th_s, whose positives are zeroed in
// finalization either way), so the pruned and unpruned runs must agree
// on every field — at every thread count.
TEST(ParallelDeterminismTest, L1PrunedMatchesUnpruned) {
  LogStore store = SimulatedCorpus();
  // A sparse source active in only the first slot: every pair involving
  // it stays far below th_s, so the prune actually fires.
  {
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
      LogRecord record;
      record.client_ts = record.server_ts =
          rng.UniformInt(0, kMillisPerHour - 1);
      record.source = "Sparse";
      record.message = "routine maintenance tick";
      ASSERT_TRUE(store.Append(record).ok());
    }
    store.BuildIndex();
  }
  L1Config config;
  config.minlogs = 20;
  config.test.sample_size = 100;
  // High enough that the sparse source's pairs get pruned, low enough
  // that the always-on pairs still get tested.
  config.th_s = 0.9;
  config.prune_support = true;
  const auto pruned =
      MineAtEachThreadCount<L1Config, L1ActivityMiner, L1Result>(store,
                                                                 config);
  config.prune_support = false;
  const auto unpruned =
      MineAtEachThreadCount<L1Config, L1ActivityMiner, L1Result>(store,
                                                                 config);
  EXPECT_GT(pruned.front().pairs_pruned, 0);
  EXPECT_GT(pruned.front().pairs_tested, 0);
  EXPECT_EQ(unpruned.front().pairs_pruned, 0);
  for (size_t r = 0; r < pruned.size(); ++r) {
    const L1Result& p = pruned[r];
    const L1Result& u = unpruned[r];
    ASSERT_EQ(p.pairs.size(), u.pairs.size());
    EXPECT_EQ(p.pairs_tested + p.pairs_pruned, u.pairs_tested);
    for (size_t i = 0; i < p.pairs.size(); ++i) {
      EXPECT_EQ(p.pairs[i].a, u.pairs[i].a);
      EXPECT_EQ(p.pairs[i].b, u.pairs[i].b);
      EXPECT_EQ(p.pairs[i].slots_supported, u.pairs[i].slots_supported);
      EXPECT_EQ(p.pairs[i].slots_positive, u.pairs[i].slots_positive);
      EXPECT_EQ(p.pairs[i].positive_ratio, u.pairs[i].positive_ratio);
      EXPECT_EQ(p.pairs[i].dependent, u.pairs[i].dependent);
    }
  }
}

TEST(ParallelDeterminismTest, L2IdenticalAcrossThreadCounts) {
  const LogStore store = SimulatedCorpus();
  L2Config config;
  config.min_cooccurrence = 2;
  config.min_cooccurrence_per_session = 0.0;
  config.session.min_logs = 3;
  const auto results =
      MineAtEachThreadCount<L2Config, L2CooccurrenceMiner, L2Result>(store,
                                                                     config);
  const L2Result& reference = results.front();
  EXPECT_GT(reference.num_bigrams, 0);
  for (const L2Result& other : results) {
    EXPECT_EQ(other.num_bigrams, reference.num_bigrams);
    EXPECT_EQ(other.session_stats.num_sessions,
              reference.session_stats.num_sessions);
    ASSERT_EQ(other.scored.size(), reference.scored.size());
    for (size_t i = 0; i < reference.scored.size(); ++i) {
      EXPECT_EQ(other.scored[i].a, reference.scored[i].a);
      EXPECT_EQ(other.scored[i].b, reference.scored[i].b);
      EXPECT_EQ(other.scored[i].table.o11, reference.scored[i].table.o11);
      EXPECT_EQ(other.scored[i].table.o12, reference.scored[i].table.o12);
      EXPECT_EQ(other.scored[i].table.o21, reference.scored[i].table.o21);
      EXPECT_EQ(other.scored[i].table.o22, reference.scored[i].table.o22);
      EXPECT_EQ(other.scored[i].score, reference.scored[i].score);
      EXPECT_EQ(other.scored[i].p_value, reference.scored[i].p_value);
      EXPECT_EQ(other.scored[i].dependent, reference.scored[i].dependent);
    }
  }
}

TEST(ParallelDeterminismTest, L3IdenticalAcrossThreadCounts) {
  const LogStore store = SimulatedCorpus();
  const ServiceVocabulary vocabulary = Vocab();
  std::vector<L3Result> results;
  for (int num_threads : kThreadCounts) {
    L3Config config;
    config.num_threads = num_threads;
    L3TextMiner miner(vocabulary, config);
    auto mined = miner.Mine(store, 0, kHorizon);
    ASSERT_TRUE(mined.ok()) << mined.status();
    results.push_back(std::move(mined).value());
  }
  const L3Result& reference = results.front();
  EXPECT_GT(reference.logs_scanned, 0);
  EXPECT_GT(reference.logs_stopped, 0);
  ASSERT_FALSE(reference.citations.empty());
  for (const L3Result& other : results) {
    EXPECT_EQ(other.logs_scanned, reference.logs_scanned);
    EXPECT_EQ(other.logs_stopped, reference.logs_stopped);
    ASSERT_EQ(other.citations.size(), reference.citations.size());
    for (size_t i = 0; i < reference.citations.size(); ++i) {
      EXPECT_EQ(other.citations[i].app, reference.citations[i].app);
      EXPECT_EQ(other.citations[i].entry, reference.citations[i].entry);
      EXPECT_EQ(other.citations[i].count, reference.citations[i].count);
      EXPECT_EQ(other.citations[i].dependent,
                reference.citations[i].dependent);
    }
  }
}

TEST(ParallelDeterminismTest, AgrawalIdenticalAcrossThreadCounts) {
  const LogStore store = SimulatedCorpus();
  AgrawalConfig config;
  config.minlogs = 20;
  config.sample_size = 100;
  const auto results =
      MineAtEachThreadCount<AgrawalConfig, AgrawalDelayMiner, AgrawalResult>(
          store, config);
  const AgrawalResult& reference = results.front();
  ASSERT_FALSE(reference.pairs.empty());
  for (const AgrawalResult& other : results) {
    ASSERT_EQ(other.pairs.size(), reference.pairs.size());
    for (size_t i = 0; i < reference.pairs.size(); ++i) {
      EXPECT_EQ(other.pairs[i].a, reference.pairs[i].a);
      EXPECT_EQ(other.pairs[i].b, reference.pairs[i].b);
      EXPECT_EQ(other.pairs[i].slots_supported,
                reference.pairs[i].slots_supported);
      EXPECT_EQ(other.pairs[i].slots_positive,
                reference.pairs[i].slots_positive);
      EXPECT_EQ(other.pairs[i].dependent, reference.pairs[i].dependent);
    }
  }
}

TEST(ParallelDeterminismTest, FullPipelineIdenticalAcrossThreadCounts) {
  const LogStore store = SimulatedCorpus();
  const ServiceVocabulary vocabulary = Vocab();
  std::vector<PipelineResult> results;
  std::vector<AgrawalResult> agrawal_results;
  PipelineConfig config;
  config.l1.minlogs = 20;
  config.l1.test.sample_size = 100;
  for (int num_threads : kThreadCounts) {
    config.l1.num_threads = num_threads;
    config.l2.num_threads = num_threads;
    config.l3.num_threads = num_threads;
    MiningPipeline pipeline(vocabulary, config);
    auto run = pipeline.Run(store, 0, kHorizon);
    ASSERT_TRUE(run.ok()) << run.status();
    results.push_back(std::move(run).value());
    // The delay-histogram baseline runs beside the pipeline, at the same
    // thread count.
    AgrawalConfig agrawal_config;
    agrawal_config.minlogs = 20;
    agrawal_config.sample_size = 100;
    agrawal_config.num_threads = num_threads;
    auto agrawal = AgrawalDelayMiner(agrawal_config).Mine(store, 0, kHorizon);
    ASSERT_TRUE(agrawal.ok()) << agrawal.status();
    agrawal_results.push_back(std::move(agrawal).value());
  }
  const PipelineResult& reference = results.front();
  ASSERT_TRUE(reference.l1 && reference.l2 && reference.l3);
  for (const PipelineResult& other : results) {
    ASSERT_TRUE(other.l1 && other.l2 && other.l3);
    // Dependency models are the user-visible contract; per-pair
    // statistics are covered by the per-miner tests above.
    EXPECT_EQ(other.l1->Dependencies(store).pairs(),
              reference.l1->Dependencies(store).pairs());
    EXPECT_EQ(other.l2->Dependencies(store).pairs(),
              reference.l2->Dependencies(store).pairs());
    EXPECT_EQ(other.l3->Dependencies(store, vocabulary).pairs(),
              reference.l3->Dependencies(store, vocabulary).pairs());
    // And the raw counts must line up exactly as well.
    ASSERT_EQ(other.l1->pairs.size(), reference.l1->pairs.size());
    EXPECT_EQ(other.l2->num_bigrams, reference.l2->num_bigrams);
    EXPECT_EQ(other.l3->logs_scanned, reference.l3->logs_scanned);
  }
  // The pipeline always runs its miners side by side; mined one after
  // another on one thread, each alone, they must give the same models.
  config.l1.num_threads = config.l2.num_threads = config.l3.num_threads = 1;
  auto l1_run = L1ActivityMiner(config.l1).Mine(store, 0, kHorizon);
  auto l2_run = L2CooccurrenceMiner(config.l2).Mine(store, 0, kHorizon);
  auto l3_run = L3TextMiner(vocabulary, config.l3).Mine(store, 0, kHorizon);
  ASSERT_TRUE(l1_run.ok() && l2_run.ok() && l3_run.ok());
  const L1Result& l1 = l1_run.value();
  const L2Result& l2 = l2_run.value();
  const L3Result& l3 = l3_run.value();
  EXPECT_EQ(l1.Dependencies(store).pairs(),
            reference.l1->Dependencies(store).pairs());
  EXPECT_EQ(l1.pairs.size(), reference.l1->pairs.size());
  EXPECT_EQ(l2.Dependencies(store).pairs(),
            reference.l2->Dependencies(store).pairs());
  EXPECT_EQ(l2.num_bigrams, reference.l2->num_bigrams);
  EXPECT_EQ(l3.Dependencies(store, vocabulary).pairs(),
            reference.l3->Dependencies(store, vocabulary).pairs());
  EXPECT_EQ(l3.logs_scanned, reference.l3->logs_scanned);
  const AgrawalResult& agrawal_reference = agrawal_results.front();
  for (const AgrawalResult& other : agrawal_results) {
    EXPECT_EQ(other.Dependencies(store).pairs(),
              agrawal_reference.Dependencies(store).pairs());
    ASSERT_EQ(other.pairs.size(), agrawal_reference.pairs.size());
  }
}

}  // namespace
}  // namespace logmine::core
