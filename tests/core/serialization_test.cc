// Snapshot round-trip properties: for randomized instances of every
// resumable-state type, Decode(Encode(x)) == x, and corrupt or
// truncated payloads are rejected instead of half-decoded.

#include "core/serialization.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace logmine::core {
namespace {

std::string RandomName(Rng* rng) {
  static const char* kStems[] = {"adt",  "lab",    "pacs", "billing",
                                 "ris",  "portal", "lis",  "pharmacy"};
  return std::string(kStems[rng->UniformInt(0, 7)]) + "-" +
         std::to_string(rng->UniformInt(0, 999));
}

DependencyModel RandomModel(Rng* rng, int max_pairs) {
  DependencyModel model;
  const int64_t pairs = rng->UniformInt(0, max_pairs);
  for (int64_t i = 0; i < pairs; ++i) {
    model.Insert(MakeUnorderedPair(RandomName(rng), RandomName(rng)));
  }
  return model;
}

/// Encodes via one writer section, reparses, returns the cursor payload
/// round-trip through the full container (header/CRC included).
template <typename EncodeFn>
std::string EncodeToSnapshot(const EncodeFn& encode) {
  SnapshotWriter w;
  w.BeginSection("x");
  encode(&w);
  w.EndSection();
  return std::move(w).Finish();
}

template <typename T, typename EncodeFn, typename DecodeFn>
T RoundTrip(const EncodeFn& encode, const DecodeFn& decode) {
  const std::string bytes = EncodeToSnapshot(encode);
  auto reader = SnapshotReader::Parse(bytes);
  EXPECT_TRUE(reader.ok()) << reader.status();
  auto cursor = reader.value().Section("x");
  EXPECT_TRUE(cursor.ok());
  auto value = decode(&cursor.value());
  EXPECT_TRUE(value.ok()) << value.status();
  EXPECT_TRUE(cursor.value().ExpectEnd().ok());
  return std::move(value).value();
}

TEST(SerializationTest, DependencyModelRoundTripsRandomInstances) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const DependencyModel model = RandomModel(&rng, 40);
    const DependencyModel decoded = RoundTrip<DependencyModel>(
        [&](SnapshotWriter* w) { EncodeDependencyModel(model, w); },
        [](SectionCursor* c) { return DecodeDependencyModel(c); });
    EXPECT_EQ(decoded.pairs(), model.pairs());
  }
}

TEST(SerializationTest, SessionBuildStatsRoundTrip) {
  SessionBuildStats stats;
  stats.num_sessions = 123;
  stats.logs_considered = 45678;
  stats.logs_with_context = 34567;
  stats.logs_assigned = 23456;
  stats.assigned_fraction = 0.5135;
  const SessionBuildStats decoded = RoundTrip<SessionBuildStats>(
      [&](SnapshotWriter* w) { EncodeSessionBuildStats(stats, w); },
      [](SectionCursor* c) { return DecodeSessionBuildStats(c); });
  EXPECT_EQ(decoded.num_sessions, stats.num_sessions);
  EXPECT_EQ(decoded.logs_considered, stats.logs_considered);
  EXPECT_EQ(decoded.logs_with_context, stats.logs_with_context);
  EXPECT_EQ(decoded.logs_assigned, stats.logs_assigned);
  EXPECT_EQ(decoded.assigned_fraction, stats.assigned_fraction);
}

TEST(SerializationTest, ModelTrackerRoundTripsMidStream) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    ModelTrackerConfig config;
    config.confirm_after = rng.UniformInt(1, 3);
    config.stale_after = rng.UniformInt(2, 5);
    config.retire_after = rng.UniformInt(5, 9);
    ModelTracker tracker(config);
    const int64_t observations = rng.UniformInt(0, 12);
    for (int64_t o = 0; o < observations; ++o) {
      tracker.Observe(RandomModel(&rng, 15));
    }

    ModelTracker decoded = RoundTrip<ModelTracker>(
        [&](SnapshotWriter* w) { EncodeModelTracker(tracker, w); },
        [](SectionCursor* c) { return DecodeModelTracker(c); });
    EXPECT_EQ(decoded.num_observations(), tracker.num_observations());
    EXPECT_EQ(decoded.config().confirm_after, config.confirm_after);
    EXPECT_EQ(decoded.config().stale_after, config.stale_after);
    EXPECT_EQ(decoded.config().retire_after, config.retire_after);
    ASSERT_EQ(decoded.tracked().size(), tracker.tracked().size());
    auto expected = tracker.tracked().begin();
    for (const auto& [pair, dep] : decoded.tracked()) {
      EXPECT_EQ(pair, expected->first);
      EXPECT_EQ(dep.state, expected->second.state);
      EXPECT_EQ(dep.first_seen, expected->second.first_seen);
      EXPECT_EQ(dep.last_seen, expected->second.last_seen);
      EXPECT_EQ(dep.times_seen, expected->second.times_seen);
      EXPECT_EQ(dep.confirm_streak, expected->second.confirm_streak);
      ++expected;
    }

    // The restored tracker behaves identically from here on.
    const DependencyModel next = RandomModel(&rng, 15);
    ModelUpdate original_update = tracker.Observe(next);
    ModelUpdate decoded_update = decoded.Observe(next);
    EXPECT_EQ(original_update.confirmed, decoded_update.confirmed);
    EXPECT_EQ(original_update.retired, decoded_update.retired);
    EXPECT_EQ(original_update.revived, decoded_update.revived);
    EXPECT_EQ(tracker.ActiveModel().pairs(), decoded.ActiveModel().pairs());
  }
}

TEST(SerializationTest, FingerprintSeesEveryResultRelevantField) {
  // Each single-field tweak must move the fingerprint...
  const L1Config l1;
  {
    L1Config tweaked = l1;
    tweaked.th_pr += 0.01;
    EXPECT_NE(ConfigFingerprint(tweaked), ConfigFingerprint(l1));
  }
  {
    L1Config tweaked = l1;
    tweaked.seed += 1;
    EXPECT_NE(ConfigFingerprint(tweaked), ConfigFingerprint(l1));
  }
  const L2Config l2;
  {
    L2Config tweaked = l2;
    tweaked.timeout += 1;
    EXPECT_NE(ConfigFingerprint(tweaked), ConfigFingerprint(l2));
  }
  const L3Config l3;
  {
    L3Config tweaked = l3;
    tweaked.stop_patterns.pop_back();
    EXPECT_NE(ConfigFingerprint(tweaked), ConfigFingerprint(l3));
  }
  // ...and the three techniques never collide on defaults.
  EXPECT_NE(ConfigFingerprint(l1), ConfigFingerprint(l2));
  EXPECT_NE(ConfigFingerprint(l2), ConfigFingerprint(l3));
}

TEST(SerializationTest, FingerprintIgnoresThreadCount) {
  // Results are bit-identical for any thread count (PR 1), so a resumed
  // run may change parallelism without invalidating its checkpoints.
  L1Config l1;
  l1.num_threads = 1;
  L1Config l1_pool = l1;
  l1_pool.num_threads = 0;
  EXPECT_EQ(ConfigFingerprint(l1), ConfigFingerprint(l1_pool));
  L2Config l2;
  l2.num_threads = 1;
  L2Config l2_pool = l2;
  l2_pool.num_threads = 8;
  EXPECT_EQ(ConfigFingerprint(l2), ConfigFingerprint(l2_pool));
  L3Config l3;
  l3.num_threads = 1;
  L3Config l3_pool = l3;
  l3_pool.num_threads = 8;
  EXPECT_EQ(ConfigFingerprint(l3), ConfigFingerprint(l3_pool));
}

TEST(SerializationTest, FingerprintIgnoresSchedulingKnobs) {
  // Pruning and chunking change only how the work is scheduled, never
  // the result bytes (ParallelDeterminismTest.L1PrunedMatchesUnpruned),
  // so checkpoints survive toggling them.
  L1Config l1;
  L1Config tuned = l1;
  tuned.prune_support = !l1.prune_support;
  tuned.pair_chunk = l1.pair_chunk * 4;
  EXPECT_EQ(ConfigFingerprint(l1), ConfigFingerprint(tuned));
}

TEST(SerializationTest, CorruptPayloadsAreRejectedNotHalfDecoded) {
  // An implausible pair count must fail fast instead of reserving.
  SnapshotWriter w;
  w.BeginSection("x");
  w.PutU64(uint64_t{1} << 40);  // claimed pair count
  w.EndSection();
  const std::string bytes = std::move(w).Finish();
  auto reader = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(reader.ok());
  SectionCursor c = reader.value().Section("x").value();
  EXPECT_EQ(DecodeDependencyModel(&c).status().code(),
            StatusCode::kParseError);

  // Every strict prefix of a tracker payload must fail to decode: the
  // decoder consumes exactly what the encoder wrote, so any missing
  // byte surfaces as a bounds-checked ParseError, never a partial
  // tracker. Extract the raw section payload from the known container
  // layout (8-byte header, 13-byte section prefix for name "x", 8-byte
  // footer) and decode from progressively truncated cursors.
  ModelTracker tracker{ModelTrackerConfig{}};
  DependencyModel model;
  model.Insert(MakeUnorderedPair("a", "b"));
  tracker.Observe(model);
  const std::string tracker_bytes = EncodeToSnapshot(
      [&](SnapshotWriter* w) { EncodeModelTracker(tracker, w); });
  const size_t prefix = 8 + 4 + 1 + 8;
  const std::string payload =
      tracker_bytes.substr(prefix, tracker_bytes.size() - prefix - 8);
  {
    // Sanity: the extracted payload decodes whole.
    SectionCursor full{std::string_view(payload)};
    ASSERT_TRUE(DecodeModelTracker(&full).ok());
    ASSERT_TRUE(full.ExpectEnd().ok());
  }
  for (size_t keep = 0; keep < payload.size(); ++keep) {
    SectionCursor truncated{std::string_view(payload).substr(0, keep)};
    EXPECT_EQ(DecodeModelTracker(&truncated).status().code(),
              StatusCode::kParseError)
        << "tracker payload prefix of " << keep << " bytes decoded";
  }
}

}  // namespace
}  // namespace logmine::core
