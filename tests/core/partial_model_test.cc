// Merge determinism is what lets a fault-tolerant sharded sweep promise
// byte-identical output: whatever order shards finish in — and however
// many times a shard's partial is listed — merging the surviving partial
// models must produce the same bytes. The property tests here drive
// MergePartialModels over seeded random corpora, shard counts and
// permutations and assert identity on MergedModelBytes, the exact
// serialized form the chaos harness compares.

#include "core/partial_model.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialization.h"
#include "util/rng.h"

namespace logmine::core {
namespace {

/// A deterministic random model: pair names drawn from a small alphabet
/// so different cells overlap (the merge must dedup across shards).
DependencyModel RandomModel(Rng* rng, int max_pairs) {
  DependencyModel model;
  const int64_t n = rng->UniformInt(0, max_pairs);
  for (int64_t i = 0; i < n; ++i) {
    const std::string a = "app" + std::to_string(rng->UniformInt(0, 9));
    const std::string b = "app" + std::to_string(rng->UniformInt(10, 19));
    model.Insert(MakeUnorderedPair(a, b));
  }
  return model;
}

std::vector<PartialModel> RandomCorpus(Rng* rng, int num_days,
                                       int num_ranges, uint64_t state_hash) {
  std::vector<PartialModel> parts;
  for (int day = 0; day < num_days; ++day) {
    for (int range = 0; range < num_ranges; ++range) {
      PartialModel part;
      part.shard = {day, range};
      part.num_days = num_days;
      part.num_ranges = num_ranges;
      part.state_hash = state_hash;
      part.model = RandomModel(rng, 6);
      parts.push_back(std::move(part));
    }
  }
  return parts;
}

std::string MergedBytes(int num_days, int num_ranges,
                        const std::vector<PartialModel>& parts) {
  auto merged = MergePartialModels(num_days, num_ranges, parts);
  EXPECT_TRUE(merged.ok()) << merged.status();
  return MergedModelBytes(merged.value());
}

TEST(PartialModelMergeTest, OrderIndependentForAnyShardCountAndPermutation) {
  Rng seeds(20260808);
  for (const auto& [num_days, num_ranges] :
       std::vector<std::pair<int, int>>{{1, 1}, {1, 4}, {3, 1}, {3, 4},
                                        {7, 8}}) {
    Rng rng = seeds.Fork(std::to_string(num_days) + "x" +
                         std::to_string(num_ranges));
    std::vector<PartialModel> parts =
        RandomCorpus(&rng, num_days, num_ranges, /*state_hash=*/42);
    const std::string reference = MergedBytes(num_days, num_ranges, parts);
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<PartialModel> shuffled = parts;
      rng.Shuffle(&shuffled);
      EXPECT_EQ(MergedBytes(num_days, num_ranges, shuffled), reference)
          << num_days << "x" << num_ranges << " trial " << trial;
    }
  }
}

TEST(PartialModelMergeTest, DuplicateShardsAreIdempotent) {
  Rng rng(7);
  std::vector<PartialModel> parts = RandomCorpus(&rng, 2, 3, 1);
  const std::string reference = MergedBytes(2, 3, parts);
  // A shard's (identical) partial listed twice changes nothing.
  std::vector<PartialModel> with_dups = parts;
  with_dups.push_back(parts[2]);
  with_dups.push_back(parts[5]);
  rng.Shuffle(&with_dups);
  EXPECT_EQ(MergedBytes(2, 3, with_dups), reference);
}

TEST(PartialModelMergeTest, MissingShardsReportExactCoverage) {
  Rng rng(11);
  const int num_days = 3, num_ranges = 4;
  std::vector<PartialModel> parts =
      RandomCorpus(&rng, num_days, num_ranges, 9);
  // Drop two specific cells, as if the supervisor had poisoned them.
  std::vector<PartialModel> surviving;
  for (const PartialModel& part : parts) {
    if (part.shard == ShardId{1, 2} || part.shard == ShardId{2, 0}) continue;
    surviving.push_back(part);
  }
  auto merged = MergePartialModels(num_days, num_ranges, surviving);
  ASSERT_TRUE(merged.ok()) << merged.status();
  const CoverageReport& coverage = merged.value().coverage;
  EXPECT_FALSE(coverage.complete());
  EXPECT_EQ(coverage.covered_cells(), num_days * num_ranges - 2);
  EXPECT_DOUBLE_EQ(coverage.fraction(), 10.0 / 12.0);
  const std::vector<std::pair<int, int>> missing = coverage.MissingCells();
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0], std::make_pair(1, 2));
  EXPECT_EQ(missing[1], std::make_pair(2, 0));
  // The merged model is exactly the union of the surviving parts: a
  // missing shard subtracts its pairs, never anyone else's.
  DependencyModel expected;
  for (const PartialModel& part : surviving) {
    expected = expected.Union(part.model);
  }
  EXPECT_EQ(merged.value().model.pairs(), expected.pairs());
  // Day 0 kept all its ranges; its daily model matches the full merge.
  DependencyModel day0;
  for (const PartialModel& part : surviving) {
    if (part.shard.day == 0) day0 = day0.Union(part.model);
  }
  EXPECT_EQ(merged.value().daily[0].pairs(), day0.pairs());
}

TEST(PartialModelMergeTest, EmptyPartsYieldZeroCoverage) {
  auto merged = MergePartialModels(2, 2, {});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().coverage.covered_cells(), 0);
  EXPECT_DOUBLE_EQ(merged.value().coverage.fraction(), 0.0);
  EXPECT_TRUE(merged.value().model.empty());
  EXPECT_EQ(merged.value().daily.size(), 2u);
}

TEST(PartialModelMergeTest, RejectsMismatchedGridsHashesAndBounds) {
  Rng rng(3);
  std::vector<PartialModel> parts = RandomCorpus(&rng, 2, 2, 5);

  std::vector<PartialModel> wrong_grid = parts;
  wrong_grid[1].num_ranges = 3;
  EXPECT_EQ(MergePartialModels(2, 2, wrong_grid).status().code(),
            StatusCode::kInvalidArgument);

  std::vector<PartialModel> wrong_hash = parts;
  wrong_hash[2].state_hash = 6;
  EXPECT_EQ(MergePartialModels(2, 2, wrong_hash).status().code(),
            StatusCode::kInvalidArgument);

  std::vector<PartialModel> out_of_bounds = parts;
  out_of_bounds[0].shard.day = 2;
  EXPECT_EQ(MergePartialModels(2, 2, out_of_bounds).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PartialModelSerializationTest, PartialModelBytesRoundTrip) {
  Rng rng(21);
  PartialModel part;
  part.shard = {3, 1};
  part.num_days = 7;
  part.num_ranges = 4;
  part.state_hash = 0xDEADBEEFCAFEF00DULL;
  part.model = RandomModel(&rng, 10);
  part.payload = std::string("per-cell\0bytes", 14);

  auto parsed = ParsePartialModelBytes(PartialModelBytes(part));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().shard, part.shard);
  EXPECT_EQ(parsed.value().num_days, part.num_days);
  EXPECT_EQ(parsed.value().num_ranges, part.num_ranges);
  EXPECT_EQ(parsed.value().state_hash, part.state_hash);
  EXPECT_EQ(parsed.value().model.pairs(), part.model.pairs());
  EXPECT_EQ(parsed.value().payload, part.payload);
}

TEST(PartialModelSerializationTest, NegativeShardIdsAndGridSizesAreParseErrors) {
  // Fields travel as u32 and are cast back to int32: a partial read from
  // disk must not smuggle a negative day, range or dimension past the
  // upper-bound checks.
  const auto parse_code = [](ShardId shard, int32_t num_days,
                             int32_t num_ranges) {
    PartialModel part;
    part.shard = shard;
    part.num_days = num_days;
    part.num_ranges = num_ranges;
    part.model.Insert(MakeUnorderedPair("a", "b"));
    return ParsePartialModelBytes(PartialModelBytes(part)).status().code();
  };
  EXPECT_EQ(parse_code({0, 0}, 2, 2), StatusCode::kOk);
  EXPECT_EQ(parse_code({-1, 0}, 7, 1), StatusCode::kParseError);
  EXPECT_EQ(parse_code({0, -1}, 7, 2), StatusCode::kParseError);
  EXPECT_EQ(parse_code({-5, 0}, -1, 1), StatusCode::kParseError);
  EXPECT_EQ(parse_code({0, 0}, 1, -3), StatusCode::kParseError);
  EXPECT_EQ(parse_code({0, 0}, 0, 1), StatusCode::kParseError);
}

TEST(PartialModelSerializationTest, CorruptPartialBytesFailToParse) {
  PartialModel part;
  part.shard = {0, 0};
  part.num_days = 1;
  part.num_ranges = 1;
  part.state_hash = 1;
  part.model.Insert(MakeUnorderedPair("a", "b"));
  std::string bytes = PartialModelBytes(part);
  // Flip a byte in the middle: the container CRC must catch it.
  bytes[bytes.size() / 2] ^= 0x5A;
  EXPECT_FALSE(ParsePartialModelBytes(std::move(bytes)).ok());
}

TEST(CoverageReportTest, JsonNamesTheMissingCells) {
  CoverageReport coverage;
  coverage.num_days = 2;
  coverage.num_ranges = 2;
  coverage.covered = {1, 0, 1, 1};
  const std::string json = coverage.ToJson();
  EXPECT_NE(json.find("\"covered_cells\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_cells\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("[0, 1]"), std::string::npos) << json;
}

}  // namespace
}  // namespace logmine::core
