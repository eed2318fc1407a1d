// The sliding-window miner's contract: ingesting a day one epoch at a
// time and aggregating at any point must reproduce a *batch* mine over
// the same window — per-pair evidence, scores, citation counts and the
// derived models — and its serialized state must resume
// byte-identically. Checked across seeds, since both the corpus and the
// L1 test's randomness are seed-dependent.

#include "serve/sliding_window.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/l1_activity_miner.h"
#include "core/l2_cooccurrence_miner.h"
#include "core/l3_text_miner.h"
#include "eval/dataset.h"
#include "log/filter.h"
#include "serve/model_publisher.h"
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

SlidingWindowConfig WindowConfig(const eval::Dataset& dataset) {
  SlidingWindowConfig config;
  config.epoch_length = kMillisPerHour;
  config.window_epochs = 8;
  // Scaled-down corpus: proportionally lower L1 support floor.
  config.l1.minlogs = 6;
  config.vocabulary = dataset.vocabulary;
  return config;
}

/// Deep equality via the canonical byte encoding: two model sets are
/// the same iff they serialize identically inside a generation.
std::string ModelBytes(const WindowModelSet& models) {
  ModelGeneration generation;
  generation.models = models;
  return SerializeGeneration(generation);
}

std::string StateBytes(const SlidingWindowMiner& miner) {
  SnapshotWriter w;
  w.BeginSection("window");
  miner.EncodeState(&w);
  w.EndSection();
  return std::move(w).Finish();
}

/// Asserts MineWindow() equals a fresh batch mine of [window_begin,
/// window_end) with the miner's own (normalized) configs, field by
/// field in the name domain.
void ExpectWindowMatchesBatch(const SlidingWindowMiner& miner,
                              const LogStore& store,
                              const std::string& context) {
  auto mined = miner.MineWindow();
  ASSERT_TRUE(mined.ok()) << context << ": " << mined.status();
  const WindowModelSet& window = mined.value();
  const TimeMs wb = miner.window_begin();
  const TimeMs we = miner.window_end();
  const SlidingWindowConfig& config = miner.config();
  EXPECT_EQ(window.window_begin, wb) << context;
  EXPECT_EQ(window.window_end, we) << context;

  // --- L1 ---
  core::L1ActivityMiner l1_miner(config.l1);
  auto batch_l1 = l1_miner.Mine(store, wb, we);
  ASSERT_TRUE(batch_l1.ok()) << context << ": " << batch_l1.status();
  EXPECT_EQ(window.slots_total, batch_l1.value().slots_total) << context;
  std::map<core::NamePair, const core::L1PairResult*> l1_by_names;
  for (const core::L1PairResult& pair : batch_l1.value().pairs) {
    l1_by_names[core::MakeUnorderedPair(store.source_name(pair.a),
                                        store.source_name(pair.b))] = &pair;
  }
  EXPECT_EQ(window.l1_pairs.size(), l1_by_names.size()) << context;
  for (const WindowPairStat& stat : window.l1_pairs) {
    auto it = l1_by_names.find(stat.names);
    ASSERT_NE(it, l1_by_names.end())
        << context << ": window-only L1 pair " << stat.names.first << " -- "
        << stat.names.second;
    EXPECT_EQ(stat.slots_supported, it->second->slots_supported) << context;
    EXPECT_EQ(stat.slots_positive, it->second->slots_positive) << context;
    EXPECT_DOUBLE_EQ(stat.positive_ratio, it->second->positive_ratio)
        << context;
    EXPECT_EQ(stat.dependent, it->second->dependent)
        << context << ": " << stat.names.first << " -- " << stat.names.second;
  }
  EXPECT_EQ(window.l1.pairs(),
            batch_l1.value().Dependencies(store).pairs())
      << context;

  // --- L2 ---
  core::L2CooccurrenceMiner l2_miner(config.l2);
  auto batch_l2 = l2_miner.Mine(store, wb, we);
  ASSERT_TRUE(batch_l2.ok()) << context << ": " << batch_l2.status();
  EXPECT_EQ(window.num_bigrams, batch_l2.value().num_bigrams) << context;
  EXPECT_EQ(window.session_stats.num_sessions,
            batch_l2.value().session_stats.num_sessions)
      << context;
  EXPECT_EQ(window.session_stats.logs_considered,
            batch_l2.value().session_stats.logs_considered)
      << context;
  EXPECT_EQ(window.session_stats.logs_with_context,
            batch_l2.value().session_stats.logs_with_context)
      << context;
  EXPECT_EQ(window.session_stats.logs_assigned,
            batch_l2.value().session_stats.logs_assigned)
      << context;
  EXPECT_DOUBLE_EQ(window.session_stats.assigned_fraction,
                   batch_l2.value().session_stats.assigned_fraction)
      << context;
  std::map<std::pair<std::string, std::string>, const core::L2PairScore*>
      l2_by_names;
  for (const core::L2PairScore& score : batch_l2.value().scored) {
    l2_by_names[{std::string(store.source_name(score.a)),
                 std::string(store.source_name(score.b))}] = &score;
  }
  EXPECT_EQ(window.l2_scores.size(), l2_by_names.size()) << context;
  for (const WindowL2Score& score : window.l2_scores) {
    auto it = l2_by_names.find({score.a, score.b});
    ASSERT_NE(it, l2_by_names.end())
        << context << ": window-only L2 pair " << score.a << " -> "
        << score.b;
    EXPECT_EQ(score.o11, it->second->table.o11) << context;
    EXPECT_DOUBLE_EQ(score.score, it->second->score) << context;
    EXPECT_DOUBLE_EQ(score.p_value, it->second->p_value) << context;
    EXPECT_EQ(score.dependent, it->second->dependent)
        << context << ": " << score.a << " -> " << score.b;
  }
  EXPECT_EQ(window.l2.pairs(),
            batch_l2.value().Dependencies(store).pairs())
      << context;

  // --- L3 ---
  core::L3TextMiner l3_miner(config.vocabulary, config.l3);
  auto batch_l3 = l3_miner.Mine(store, wb, we);
  ASSERT_TRUE(batch_l3.ok()) << context << ": " << batch_l3.status();
  EXPECT_EQ(window.logs_scanned, batch_l3.value().logs_scanned) << context;
  EXPECT_EQ(window.logs_stopped, batch_l3.value().logs_stopped) << context;
  std::map<std::pair<std::string, std::string>, const core::L3Citation*>
      l3_by_names;
  for (const core::L3Citation& citation : batch_l3.value().citations) {
    l3_by_names[{std::string(store.source_name(citation.app)),
                 config.vocabulary.entries[citation.entry].id}] = &citation;
  }
  EXPECT_EQ(window.citations.size(), l3_by_names.size()) << context;
  for (const WindowCitation& citation : window.citations) {
    auto it = l3_by_names.find({citation.app, citation.entry_id});
    ASSERT_NE(it, l3_by_names.end())
        << context << ": window-only citation " << citation.app << " -> "
        << citation.entry_id;
    EXPECT_EQ(citation.count, it->second->count) << context;
    EXPECT_EQ(citation.dependent, it->second->dependent) << context;
  }
  EXPECT_EQ(window.l3.pairs(),
            batch_l3.value().Dependencies(store, config.vocabulary).pairs())
      << context;

  // --- combined ---
  EXPECT_EQ(window.combined.pairs(), window.l1.Union(window.l2).pairs())
      << context;
}

class SlidingWindowEquivalenceTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlidingWindowEquivalenceTest, StreamingEqualsBatchMining) {
  const eval::Dataset dataset = BuildSeededDataset(GetParam());
  auto created = SlidingWindowMiner::Create(WindowConfig(dataset));
  ASSERT_TRUE(created.ok()) << created.status();
  SlidingWindowMiner miner = std::move(created).value();

  auto batches = SplitIntoEpochBatches(dataset.store, dataset.day_begin(0),
                                       dataset.day_end(0), kMillisPerHour);
  ASSERT_TRUE(batches.ok()) << batches.status();
  ASSERT_EQ(batches.value().size(), 24u);

  int epoch = 0;
  for (const EpochBatch& batch : batches.value()) {
    Status ingested = miner.IngestEpoch(batch);
    ASSERT_TRUE(ingested.ok()) << "epoch " << epoch << ": " << ingested;
    ++epoch;
    // Once mid-stream (a full window), once at the day's end (the
    // window has slid 16 epochs past its first position).
    if (epoch == 8 || epoch == 24) {
      ExpectWindowMatchesBatch(
          miner, dataset.store,
          "seed " + std::to_string(GetParam()) + " epoch " +
              std::to_string(epoch));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(miner.epochs_ingested(), 24);
  EXPECT_EQ(miner.epochs_retained(), 8u);
  EXPECT_EQ(miner.epochs_aged_out(), 16);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlidingWindowEquivalenceTest,
                         ::testing::Values(7u, 19u, 104729u));

TEST(SlidingWindowTest, StateRoundTripContinuesByteIdentically) {
  const eval::Dataset dataset = BuildSeededDataset(7);
  const SlidingWindowConfig config = WindowConfig(dataset);
  auto created = SlidingWindowMiner::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  SlidingWindowMiner original = std::move(created).value();

  auto batches = SplitIntoEpochBatches(dataset.store, dataset.day_begin(0),
                                       dataset.day_end(0), kMillisPerHour);
  ASSERT_TRUE(batches.ok()) << batches.status();
  for (int epoch = 0; epoch < 12; ++epoch) {
    ASSERT_TRUE(original.IngestEpoch(batches.value()[epoch]).ok()) << epoch;
  }

  // Decode a second miner from the first's serialized state.
  const std::string snapshot = StateBytes(original);
  auto reader = SnapshotReader::Parse(snapshot);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto cursor = reader.value().Section("window");
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  auto decoded = SlidingWindowMiner::DecodeState(config, &cursor.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  SlidingWindowMiner resumed = std::move(decoded).value();
  ASSERT_TRUE(cursor.value().ExpectEnd().ok());
  EXPECT_EQ(resumed.epochs_ingested(), original.epochs_ingested());
  EXPECT_EQ(StateBytes(resumed), snapshot);

  // Both continue through the rest of the day; every observable stays
  // byte-identical — the property crash recovery rests on.
  for (int epoch = 12; epoch < 24; ++epoch) {
    ASSERT_TRUE(original.IngestEpoch(batches.value()[epoch]).ok()) << epoch;
    ASSERT_TRUE(resumed.IngestEpoch(batches.value()[epoch]).ok()) << epoch;
  }
  EXPECT_EQ(StateBytes(resumed), StateBytes(original));
  auto mined_original = original.MineWindow();
  auto mined_resumed = resumed.MineWindow();
  ASSERT_TRUE(mined_original.ok()) << mined_original.status();
  ASSERT_TRUE(mined_resumed.ok()) << mined_resumed.status();
  EXPECT_EQ(ModelBytes(mined_resumed.value()),
            ModelBytes(mined_original.value()));

  // A config drift is refused outright.
  SlidingWindowConfig drifted = config;
  drifted.window_epochs = 9;
  auto reparse = SnapshotReader::Parse(snapshot);
  ASSERT_TRUE(reparse.ok());
  auto drifted_cursor = reparse.value().Section("window");
  ASSERT_TRUE(drifted_cursor.ok());
  auto refused =
      SlidingWindowMiner::DecodeState(drifted, &drifted_cursor.value());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

// --- fast synthetic-store cases -------------------------------------

LogRecord Rec(TimeMs ts, std::string source, std::string user,
              std::string message) {
  LogRecord record;
  record.client_ts = ts;
  record.server_ts = ts;
  record.source = std::move(source);
  record.host = "h";
  record.user = std::move(user);
  record.message = std::move(message);
  return record;
}

/// The records as an epoch batch carries them: an indexed store.
EpochBatch Batch(TimeMs begin, TimeMs end,
                 const std::vector<LogRecord>& records = {}) {
  EpochBatch batch{begin, end, LogStore()};
  for (const LogRecord& record : records) {
    EXPECT_TRUE(batch.records.Append(record).ok());
  }
  batch.records.BuildIndex();
  return batch;
}

SlidingWindowConfig TinyConfig() {
  SlidingWindowConfig config;
  config.epoch_length = 1000;
  config.window_epochs = 4;
  config.l1.minlogs = 1;
  return config;
}

TEST(SlidingWindowTest, SplitValidatesAndCoversEmptyEpochs) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(100, "A", "u", "x")).ok());
  ASSERT_TRUE(store.Append(Rec(2500, "B", "u", "y")).ok());

  // Index not built yet.
  EXPECT_FALSE(SplitIntoEpochBatches(store, 0, 3000, 1000).ok());
  store.BuildIndex();
  // Range not a whole number of epochs, empty, or bad epoch length.
  EXPECT_FALSE(SplitIntoEpochBatches(store, 0, 2500, 1000).ok());
  EXPECT_FALSE(SplitIntoEpochBatches(store, 1000, 1000, 1000).ok());
  EXPECT_FALSE(SplitIntoEpochBatches(store, 0, 3000, 0).ok());

  auto batches = SplitIntoEpochBatches(store, 0, 3000, 1000);
  ASSERT_TRUE(batches.ok()) << batches.status();
  ASSERT_EQ(batches.value().size(), 3u);
  EXPECT_EQ(batches.value()[0].records.size(), 1u);
  EXPECT_TRUE(batches.value()[1].records.empty());  // an empty hour
  EXPECT_EQ(batches.value()[2].records.size(), 1u);
  EXPECT_EQ(batches.value()[1].begin, 1000);
  EXPECT_EQ(batches.value()[1].end, 2000);
  for (const EpochBatch& batch : batches.value()) {
    EXPECT_TRUE(batch.records.index_built());
    EXPECT_TRUE(batch.records == SliceByTime(store, batch.begin, batch.end));
  }
}

TEST(SlidingWindowTest, CreateValidatesAndNormalizesTheConfig) {
  SlidingWindowConfig bad = TinyConfig();
  bad.epoch_length = 0;
  EXPECT_FALSE(SlidingWindowMiner::Create(bad).ok());
  bad = TinyConfig();
  bad.window_epochs = 0;
  EXPECT_FALSE(SlidingWindowMiner::Create(bad).ok());
  bad = TinyConfig();
  bad.l1.adaptive_slots = true;
  EXPECT_FALSE(SlidingWindowMiner::Create(bad).ok());
  bad = TinyConfig();
  bad.l1.th_s = 7;  // an absolute count, not a fraction
  EXPECT_FALSE(SlidingWindowMiner::Create(bad).ok());

  SlidingWindowConfig good = TinyConfig();
  good.l1.slot_length = 999999;  // ignored: one epoch = one slot
  auto miner = SlidingWindowMiner::Create(good);
  ASSERT_TRUE(miner.ok()) << miner.status();
  EXPECT_EQ(miner.value().config().l1.slot_length, 1000);
  EXPECT_NE(miner.value().config().l1.salt_anchor,
            core::L1Config::kNoSaltAnchor);
}

TEST(SlidingWindowTest, IngestRejectsPoisonBatchesAndKeepsState) {
  auto created = SlidingWindowMiner::Create(TinyConfig());
  ASSERT_TRUE(created.ok());
  SlidingWindowMiner miner = std::move(created).value();
  EXPECT_EQ(miner.MineWindow().status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(miner.IngestEpoch(Batch(1000, 2000, {Rec(1500, "A", "u", "x")}))
                  .ok());
  EXPECT_EQ(miner.window_begin(), -2000);  // 4 epochs ending at 2000
  EXPECT_EQ(miner.window_end(), 2000);

  // Wrong span.
  EXPECT_FALSE(
      miner.IngestEpoch(Batch(2000, 3500, {Rec(2500, "A", "u", "x")})).ok());
  // Off the epoch grid.
  EXPECT_FALSE(
      miner.IngestEpoch(Batch(2500, 3500, {Rec(3000, "A", "u", "x")})).ok());
  // Before the newest ingested epoch (out of order / replay).
  EXPECT_FALSE(
      miner.IngestEpoch(Batch(1000, 2000, {Rec(1500, "A", "u", "x")})).ok());
  // Records outside the claimed bounds: past the end, at the end, and
  // before the begin.
  EXPECT_FALSE(
      miner.IngestEpoch(Batch(2000, 3000, {Rec(4500, "A", "u", "x")})).ok());
  EXPECT_FALSE(
      miner.IngestEpoch(Batch(2000, 3000, {Rec(3000, "A", "u", "x")})).ok());
  EXPECT_FALSE(miner
                   .IngestEpoch(Batch(2000, 3000, {Rec(2500, "A", "u", "x"),
                                                   Rec(1999, "B", "u", "y")}))
                   .ok());
  // A store whose index was never built.
  EpochBatch unindexed;
  unindexed.begin = 2000;
  unindexed.end = 3000;
  ASSERT_TRUE(unindexed.records.Append(Rec(2500, "A", "u", "x")).ok());
  EXPECT_FALSE(miner.IngestEpoch(unindexed).ok());

  // None of the rejections touched the window.
  EXPECT_EQ(miner.epochs_ingested(), 1);
  EXPECT_EQ(miner.epochs_retained(), 1u);
  EXPECT_EQ(miner.window_end(), 2000);

  // Epochs may skip hours (an outage): only ordering is enforced.
  ASSERT_TRUE(miner.IngestEpoch(Batch(5000, 6000)).ok());
  EXPECT_EQ(miner.window_end(), 6000);
  // The epoch at 1000 slid out of the 4-epoch window [2000, 6000).
  EXPECT_EQ(miner.epochs_aged_out(), 1);
}

TEST(SlidingWindowTest, WindowAggregatesOnlyRetainedEpochs) {
  SlidingWindowConfig config = TinyConfig();
  config.vocabulary.entries.push_back({"svc1", "http://svc1"});
  config.l1.th_s = 0.25;
  auto created = SlidingWindowMiner::Create(config);
  ASSERT_TRUE(created.ok());
  SlidingWindowMiner miner = std::move(created).value();

  // 6 epochs; epochs 0 and 1 cite svc1, later ones do not.
  for (int e = 0; e < 6; ++e) {
    const std::string message =
        e < 2 ? "call to svc1 failed" : "heartbeat ok";
    std::vector<LogRecord> records;
    for (int i = 0; i < 4; ++i) {
      records.push_back(Rec(e * 1000 + i * 200, i % 2 == 0 ? "A" : "B",
                            "u" + std::to_string(i % 2), message));
    }
    ASSERT_TRUE(miner.IngestEpoch(Batch(e * 1000, e * 1000 + 1000, records))
                    .ok())
        << e;
  }
  EXPECT_EQ(miner.epochs_retained(), 4u);
  EXPECT_EQ(miner.epochs_aged_out(), 2);

  auto window = miner.MineWindow();
  ASSERT_TRUE(window.ok()) << window.status();
  // The citing epochs aged out: no svc1 citation survives the slide.
  EXPECT_TRUE(window.value().citations.empty());
  EXPECT_TRUE(window.value().l3.empty());
  EXPECT_EQ(window.value().window_begin, 2000);
  EXPECT_EQ(window.value().window_end, 6000);
}

/// Decodes a "window" section written by `write` under `config`.
Result<SlidingWindowMiner> DecodeHandBuilt(
    const SlidingWindowConfig& config,
    const std::function<void(SnapshotWriter*)>& write) {
  SnapshotWriter w;
  w.BeginSection("window");
  write(&w);
  w.EndSection();
  const std::string bytes = std::move(w).Finish();
  LOGMINE_ASSIGN_OR_RETURN(const SnapshotReader reader,
                           SnapshotReader::Parse(bytes));
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor cursor, reader.Section("window"));
  return SlidingWindowMiner::DecodeState(config, &cursor);
}

TEST(SlidingWindowTest, HostileCountsInStateAreParseErrors) {
  const SlidingWindowConfig config = TinyConfig();
  const uint64_t fingerprint =
      SlidingWindowMiner::Create(config).value().config_fingerprint();
  constexpr uint64_t kHostile = uint64_t{1} << 61;
  // Counts in layout order: sources, users, epochs, then the epoch's
  // L1 pairs, context logs and citations. Field 6 is the valid state.
  for (int field = 0; field <= 6; ++field) {
    auto decoded = DecodeHandBuilt(config, [&](SnapshotWriter* w) {
      w->PutU64(fingerprint);
      w->PutI64(1);  // epochs ingested
      w->PutI64(0);  // epochs aged out
      // Writes count `which` (hostile when under test); true once the
      // hostile count is out, ending the section with some padding.
      auto count = [&](int which, uint64_t valid) {
        w->PutU64(field == which ? kHostile : valid);
        if (field != which) return false;
        for (int i = 0; i < 8; ++i) w->PutU64(0);
        return true;
      };
      if (count(0, 1)) return;
      w->PutString("A");
      if (count(1, 1)) return;
      w->PutString("u");
      if (count(2, 1)) return;
      w->PutI64(0);  // begin
      w->PutI64(1);  // logs considered
      w->PutI64(0);  // logs scanned
      w->PutI64(0);  // logs stopped
      if (count(3, 1)) return;
      w->PutU32(0);
      w->PutU32(0);
      w->PutBool(true);
      if (count(4, 1)) return;
      w->PutI64(0);
      w->PutU32(0);
      w->PutU32(0);
      count(5, 0);
    });
    if (field == 6) {
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(decoded.value().epochs_retained(), 1u);
    } else {
      ASSERT_FALSE(decoded.ok()) << field;
      EXPECT_EQ(decoded.status().code(), StatusCode::kParseError) << field;
    }
  }
}

TEST(SlidingWindowTest, DuplicateNameInStateIsParseError) {
  const SlidingWindowConfig config = TinyConfig();
  const uint64_t fingerprint =
      SlidingWindowMiner::Create(config).value().config_fingerprint();
  using Names = std::vector<std::string>;
  for (const auto& [sources, users] :
       {std::pair{Names{"A", "B", "A"}, Names{"u"}},
        std::pair{Names{"A", "B"}, Names{"u", "v", "v"}}}) {
    auto decoded = DecodeHandBuilt(config, [&](SnapshotWriter* w) {
      w->PutU64(fingerprint);
      w->PutI64(0);
      w->PutI64(0);
      for (const Names& names : {sources, users}) {
        w->PutU64(names.size());
        for (const std::string& name : names) w->PutString(name);
      }
      w->PutU64(0);  // epochs
    });
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  }
}

}  // namespace
}  // namespace logmine::serve
