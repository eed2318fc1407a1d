// The sliding-window miner's contract: ingesting a day one epoch at a
// time and aggregating at any point must reproduce a *batch* mine over
// the same window — per-pair evidence, scores, citation counts and the
// derived models — and its serialized state must resume
// byte-identically. Checked across seeds, since both the corpus and the
// L1 test's randomness are seed-dependent.

#include "serve/sliding_window.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <set>
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

/// The miner's persisted state as one snapshot: the head in section
/// "window", each retained epoch in section "epoch.<begin>".
std::string StateBytes(const SlidingWindowMiner& miner) {
  SnapshotWriter w;
  w.BeginSection("window");
  miner.EncodeHead(&w);
  w.EndSection();
  const std::vector<TimeMs> begins = miner.epoch_begins();
  for (size_t i = 0; i < begins.size(); ++i) {
    w.BeginSection("epoch." + std::to_string(begins[i]));
    miner.EncodeEpoch(i, &w);
    w.EndSection();
  }
  return std::move(w).Finish();
}

/// Decodes `StateBytes` output under `config`.
Result<SlidingWindowMiner> DecodeStateBytes(const SlidingWindowConfig& config,
                                            const std::string& bytes) {
  LOGMINE_ASSIGN_OR_RETURN(const SnapshotReader reader,
                           SnapshotReader::Parse(bytes));
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor head, reader.Section("window"));
  LOGMINE_ASSIGN_OR_RETURN(
      SlidingWindowMiner miner,
      SlidingWindowMiner::DecodeState(config, &head, [&](TimeMs begin) {
        return reader.Section("epoch." + std::to_string(begin));
      }));
  LOGMINE_RETURN_IF_ERROR(head.ExpectEnd());
  return miner;
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
  auto decoded = DecodeStateBytes(config, snapshot);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  SlidingWindowMiner resumed = std::move(decoded).value();
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
  auto refused = DecodeStateBytes(drifted, snapshot);
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

TEST(SlidingWindowTest, WindowOutputsFollowNameOrderNotInternOrder) {
  SlidingWindowConfig config = TinyConfig();
  // Listed out of id order, too.
  config.vocabulary.entries.push_back({"svc2", "http://svc2"});
  config.vocabulary.entries.push_back({"svc1", "http://svc1"});
  auto created = SlidingWindowMiner::Create(config);
  ASSERT_TRUE(created.ok());
  SlidingWindowMiner miner = std::move(created).value();

  // Sources are interned in the order Z, M, A — the reverse of their
  // names — and every epoch has each of them active.
  LogStore store;
  for (int e = 0; e < 3; ++e) {
    std::vector<LogRecord> records;
    for (int i = 0; i < 3; ++i) {
      const TimeMs ts = e * 1000 + i * 300;
      records.push_back(Rec(ts, "Z", "u1", "call to svc2 failed"));
      records.push_back(Rec(ts + 10, "M", "u1", "call to svc1 failed"));
      records.push_back(Rec(ts + 20, "A", "u2", "svc2 then svc1 timed out"));
    }
    for (const LogRecord& record : records) {
      ASSERT_TRUE(store.Append(record).ok());
    }
    ASSERT_TRUE(
        miner.IngestEpoch(Batch(e * 1000, e * 1000 + 1000, records)).ok())
        << e;
  }
  store.BuildIndex();

  auto window = miner.MineWindow();
  ASSERT_TRUE(window.ok()) << window.status();
  std::vector<core::NamePair> pairs;
  for (const WindowPairStat& stat : window.value().l1_pairs) {
    pairs.push_back(stat.names);
  }
  EXPECT_EQ(pairs, (std::vector<core::NamePair>{
                       {"A", "M"}, {"A", "Z"}, {"M", "Z"}}));
  std::vector<std::pair<core::NamePair, int64_t>> citations;
  for (const WindowCitation& citation : window.value().citations) {
    citations.push_back({{citation.app, citation.entry_id}, citation.count});
  }
  EXPECT_EQ(citations,
            (std::vector<std::pair<core::NamePair, int64_t>>{
                {{"A", "svc1"}, 9},
                {{"A", "svc2"}, 9},
                {{"M", "svc1"}, 9},
                {{"Z", "svc2"}, 9}}));
  // And the window still equals a batch mine of the same hours.
  ExpectWindowMatchesBatch(miner, store, "name order");
}

/// Decodes a hand-built state under `config`: `write_head` fills the
/// head, and `write_epoch` the payload returned for every listed epoch.
Result<SlidingWindowMiner> DecodeHandBuilt(
    const SlidingWindowConfig& config,
    const std::function<void(SnapshotWriter*)>& write_head,
    const std::function<void(SnapshotWriter*)>& write_epoch =
        [](SnapshotWriter*) {}) {
  SnapshotWriter w;
  w.BeginSection("window");
  write_head(&w);
  w.EndSection();
  w.BeginSection("epoch");
  write_epoch(&w);
  w.EndSection();
  const std::string bytes = std::move(w).Finish();
  LOGMINE_ASSIGN_OR_RETURN(const SnapshotReader reader,
                           SnapshotReader::Parse(bytes));
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor head, reader.Section("window"));
  return SlidingWindowMiner::DecodeState(
      config, &head, [&](TimeMs) { return reader.Section("epoch"); });
}

TEST(SlidingWindowTest, HostileCountsInStateAreParseErrors) {
  const SlidingWindowConfig config = TinyConfig();
  const uint64_t fingerprint =
      SlidingWindowMiner::Create(config).value().config_fingerprint();
  constexpr uint64_t kHostile = uint64_t{1} << 61;
  // Counts in layout order: the head's sources, users and epochs, then
  // the epoch's L1 pairs, context logs and citations. Field 6 is the
  // valid state.
  for (int field = 0; field <= 6; ++field) {
    // Writes count `which` (hostile when under test); true once the
    // hostile count is out, ending the section with some padding.
    auto count = [&](SnapshotWriter* w, int which, uint64_t valid) {
      w->PutU64(field == which ? kHostile : valid);
      if (field != which) return false;
      for (int i = 0; i < 8; ++i) w->PutU64(0);
      return true;
    };
    auto decoded = DecodeHandBuilt(
        config,
        [&](SnapshotWriter* w) {
          w->PutU64(fingerprint);
          w->PutI64(1);  // epochs ingested
          w->PutI64(0);  // epochs aged out
          if (count(w, 0, 2)) return;
          w->PutString("A");
          w->PutString("B");
          if (count(w, 1, 1)) return;
          w->PutString("u");
          if (count(w, 2, 1)) return;
          w->PutI64(0);  // begin
        },
        [&](SnapshotWriter* w) {
          w->PutI64(0);  // begin
          w->PutI64(1);  // logs considered
          w->PutI64(0);  // logs scanned
          w->PutI64(0);  // logs stopped
          if (count(w, 3, 1)) return;
          w->PutU32(0);
          w->PutU32(1);
          w->PutBool(true);
          if (count(w, 4, 1)) return;
          w->PutI64(0);
          w->PutU32(0);
          w->PutU32(0);
          count(w, 5, 0);
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

/// A valid state of TinyConfig plus one vocabulary entry: sources A
/// and B, user u, and `begins` as retained epochs, each holding one L1
/// pair, one context log and one citation. The tests below damage one
/// field at a time.
struct TinyState {
  int64_t ingested = 1;
  int64_t aged_out = 0;
  std::vector<TimeMs> begins = {0};
  /// Begin the epoch payload claims; the listed begin when nullopt.
  std::optional<TimeMs> payload_begin;
  uint32_t pair_a = 0;
  uint32_t pair_b = 1;
  /// Logs considered, scanned and stopped, in layout order.
  std::array<int64_t, 3> log_counts = {1, 1, 1};
  int64_t citation_count = 1;
};

SlidingWindowConfig TinyStateConfig() {
  SlidingWindowConfig config = TinyConfig();
  config.vocabulary.entries.push_back({"svc1", "http://svc1"});
  return config;
}

Result<SlidingWindowMiner> DecodeTinyState(const TinyState& state) {
  const SlidingWindowConfig config = TinyStateConfig();
  const uint64_t fingerprint =
      SlidingWindowMiner::Create(config).value().config_fingerprint();
  SnapshotWriter w;
  w.BeginSection("window");
  w.PutU64(fingerprint);
  w.PutI64(state.ingested);
  w.PutI64(state.aged_out);
  w.PutU64(2);
  w.PutString("A");
  w.PutString("B");
  w.PutU64(1);
  w.PutString("u");
  w.PutU64(state.begins.size());
  for (const TimeMs begin : state.begins) w.PutI64(begin);
  w.EndSection();
  for (const TimeMs begin : state.begins) {
    w.BeginSection("epoch." + std::to_string(begin));
    w.PutI64(state.payload_begin.value_or(begin));
    for (const int64_t count : state.log_counts) w.PutI64(count);
    w.PutU64(1);
    w.PutU32(state.pair_a);
    w.PutU32(state.pair_b);
    w.PutBool(true);
    w.PutU64(1);
    w.PutI64(begin);
    w.PutU32(0);
    w.PutU32(0);
    w.PutU64(1);
    w.PutU32(0);
    w.PutU64(0);
    w.PutI64(state.citation_count);
    w.EndSection();
  }
  const std::string bytes = std::move(w).Finish();
  LOGMINE_ASSIGN_OR_RETURN(const SnapshotReader reader,
                           SnapshotReader::Parse(bytes));
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor head, reader.Section("window"));
  return SlidingWindowMiner::DecodeState(config, &head, [&](TimeMs begin) {
    return reader.Section("epoch." + std::to_string(begin));
  });
}

void ExpectParseError(const TinyState& state, const std::string& what) {
  auto decoded = DecodeTinyState(state);
  ASSERT_FALSE(decoded.ok()) << what;
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError)
      << what << ": " << decoded.status();
}

TEST(SlidingWindowTest, TinyStateDecodesWhenUndamaged) {
  auto decoded = DecodeTinyState({});
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  auto window = decoded.value().MineWindow();
  ASSERT_TRUE(window.ok()) << window.status();
  ASSERT_EQ(window.value().l1_pairs.size(), 1u);
  EXPECT_EQ(window.value().l1_pairs[0].names, core::NamePair("A", "B"));
  ASSERT_EQ(window.value().citations.size(), 1u);
  EXPECT_EQ(window.value().citations[0].count, 1);

  TinyState full_window;  // 4 epochs, the most TinyConfig retains
  full_window.begins = {3000, 4000, 5000, 6000};
  full_window.ingested = 7;
  full_window.aged_out = 3;
  EXPECT_TRUE(DecodeTinyState(full_window).ok());
}

TEST(SlidingWindowTest, HostileEpochCountersInStateAreParseErrors) {
  TinyState state;
  state.ingested = -1;
  ExpectParseError(state, "negative epochs ingested");
  state = {};
  state.ingested = -1;
  state.aged_out = -2;  // -1 - -2 would otherwise add up to 1 retained
  ExpectParseError(state, "negative epochs aged out");
  state = {};
  state.ingested = 5;  // 5 ingested, 0 aged out, but 1 retained
  ExpectParseError(state, "counters that do not add up");
}

TEST(SlidingWindowTest, HostileEpochBeginsInStateAreParseErrors) {
  TinyState state;
  state.begins = {500};
  ExpectParseError(state, "off the epoch grid");
  state = {};
  state.begins = {2000, 1000};
  state.ingested = 2;
  ExpectParseError(state, "decreasing");
  state.begins = {1000, 1000};
  ExpectParseError(state, "repeated");
  state.begins = {0, 1000, 2000, 3000, 4000};
  state.ingested = 5;
  ExpectParseError(state, "more epochs than the window holds");
  state.begins = {0, 4000};
  state.ingested = 2;
  ExpectParseError(state, "outside one window");
  state.begins = {INT64_MIN - INT64_MIN % 1000, INT64_MAX - INT64_MAX % 1000};
  ExpectParseError(state, "a span wider than int64");
  state = {};
  state.payload_begin = 1000;
  ExpectParseError(state, "a payload of another epoch");
}

TEST(SlidingWindowTest, UnorderedL1PairInStateIsParseError) {
  TinyState state;
  state.pair_a = 1;
  state.pair_b = 1;
  ExpectParseError(state, "a == b");
  state.pair_a = 1;
  state.pair_b = 0;
  ExpectParseError(state, "name(a) > name(b)");
}

TEST(SlidingWindowTest, CitationCountBelowOneInStateIsParseError) {
  for (const int64_t count : {int64_t{0}, int64_t{-3}}) {
    TinyState state;
    state.citation_count = count;
    ExpectParseError(state, "count " + std::to_string(count));
  }
}

TEST(SlidingWindowTest, HostileEpochLogCountsInStateAreParseErrors) {
  // MineWindow sums each count over TinyConfig's 4 epochs in int64, so
  // an epoch may hold at most INT64_MAX / 4 of it.
  constexpr int64_t kMax = INT64_MAX / 4;
  for (size_t field = 0; field < 3; ++field) {
    for (const int64_t count : {int64_t{-1}, kMax + 1, INT64_MAX}) {
      TinyState state;
      state.log_counts[field] = count;
      ExpectParseError(state, "log count " + std::to_string(field) + " = " +
                                  std::to_string(count));
    }
  }
  for (const int64_t count : {kMax + 1, INT64_MAX}) {
    TinyState state;
    state.citation_count = count;
    ExpectParseError(state, "citation count " + std::to_string(count));
  }

  // At the bound a full window sums to at most INT64_MAX, exactly.
  TinyState full_window;
  full_window.begins = {3000, 4000, 5000, 6000};
  full_window.ingested = 4;
  full_window.log_counts = {kMax, kMax, kMax};
  full_window.citation_count = kMax;
  auto decoded = DecodeTinyState(full_window);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  auto window = decoded.value().MineWindow();
  ASSERT_TRUE(window.ok()) << window.status();
  EXPECT_EQ(window.value().logs_scanned, 4 * kMax);
  ASSERT_EQ(window.value().citations.size(), 1u);
  EXPECT_EQ(window.value().citations[0].count, 4 * kMax);
}

TEST(SlidingWindowTest, EntriesSharingAnIdMergeTheirCitations) {
  // Entries 0 and 2 share the id "svc"; the window keys citations by
  // (app, id), so their counts merge into one citation.
  SlidingWindowConfig config = TinyConfig();
  config.l3.min_citations = 5;
  config.vocabulary.entries = {{"svc", "http://svc-a"},
                               {"other", "http://other"},
                               {"svc", "http://svc-b"}};
  const uint64_t fingerprint =
      SlidingWindowMiner::Create(config).value().config_fingerprint();
  auto decoded = DecodeHandBuilt(
      config,
      [&](SnapshotWriter* w) {
        w->PutU64(fingerprint);
        w->PutI64(1);  // epochs ingested
        w->PutI64(0);  // epochs aged out
        w->PutU64(1);
        w->PutString("A");
        w->PutU64(0);  // users
        w->PutU64(1);
        w->PutI64(0);  // the one epoch's begin
      },
      [&](SnapshotWriter* w) {
        for (int i = 0; i < 4; ++i) w->PutI64(0);  // begin and log counts
        w->PutU64(0);  // L1 pairs
        w->PutU64(0);  // context logs
        w->PutU64(3);  // citations: (app, entry, count)
        for (const auto& [entry, count] :
             {std::pair{2, 3}, std::pair{1, 1}, std::pair{0, 2}}) {
          w->PutU32(0);
          w->PutU64(static_cast<uint64_t>(entry));
          w->PutI64(count);
        }
      });
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  auto window = decoded.value().MineWindow();
  ASSERT_TRUE(window.ok()) << window.status();
  const std::vector<WindowCitation>& citations = window.value().citations;
  ASSERT_EQ(citations.size(), 2u);
  EXPECT_EQ(citations[0].app, "A");
  EXPECT_EQ(citations[0].entry_id, "other");
  EXPECT_EQ(citations[0].count, 1);
  EXPECT_FALSE(citations[0].dependent);
  EXPECT_EQ(citations[1].app, "A");
  EXPECT_EQ(citations[1].entry_id, "svc");
  EXPECT_EQ(citations[1].count, 5);  // 3 + 2, over min_citations
  EXPECT_TRUE(citations[1].dependent);
  EXPECT_EQ(window.value().l3.pairs(),
            (std::set<core::NamePair>{{"A", "svc"}}));
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
