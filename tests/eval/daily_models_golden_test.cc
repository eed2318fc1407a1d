// Golden per-day results of the mining pipeline on a small multi-day
// simulated corpus. Each day's L1, L2 and L3 output — every scored pair
// and citation with its counts and verdict, plus the run's tallies — is
// folded into one digest. The expected digests were recorded with the
// store that kept records in emission order and reached them through a
// separate time-order permutation; the time-ordered store must mine
// exactly the same models. The L1 digests were recorded with L1's
// baselines drawn by (source name, absolute slot), its one random keying.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "eval/dataset.h"

namespace logmine::eval {
namespace {

// FNV-1a over the values in order; strings are length-prefixed.
class Digest {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) Byte(v & 0xff);
  }
  void Mix(std::string_view s) {
    Mix(s.size());
    for (char c : s) Byte(static_cast<unsigned char>(c));
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  void Byte(uint64_t b) {
    hash_ = (hash_ ^ b) * 0x100000001B3ULL;
  }
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

struct DayDigests {
  std::string l1;
  std::string l2;
  std::string l3;
};

DayDigests DigestDay(const core::PipelineResult& result,
                     const LogStore& store) {
  DayDigests out;
  Digest l1;
  l1.Mix(static_cast<uint64_t>(result.l1->slots_total));
  l1.Mix(static_cast<uint64_t>(result.l1->pairs_tested));
  l1.Mix(static_cast<uint64_t>(result.l1->pairs_pruned));
  for (const core::L1PairResult& pair : result.l1->pairs) {
    l1.Mix(store.source_name(pair.a));
    l1.Mix(store.source_name(pair.b));
    l1.Mix(static_cast<uint64_t>(pair.slots_supported));
    l1.Mix(static_cast<uint64_t>(pair.slots_positive));
    l1.Mix(pair.dependent);
  }
  out.l1 = l1.Hex();

  Digest l2;
  const core::SessionBuildStats& sessions = result.l2->session_stats;
  l2.Mix(sessions.num_sessions);
  l2.Mix(static_cast<uint64_t>(sessions.logs_considered));
  l2.Mix(static_cast<uint64_t>(sessions.logs_with_context));
  l2.Mix(static_cast<uint64_t>(sessions.logs_assigned));
  l2.Mix(static_cast<uint64_t>(result.l2->num_bigrams));
  for (const core::L2PairScore& score : result.l2->scored) {
    l2.Mix(store.source_name(score.a));
    l2.Mix(store.source_name(score.b));
    l2.Mix(static_cast<uint64_t>(score.table.o11));
    l2.Mix(static_cast<uint64_t>(score.table.o12));
    l2.Mix(static_cast<uint64_t>(score.table.o21));
    l2.Mix(static_cast<uint64_t>(score.table.o22));
    l2.Mix(score.dependent);
  }
  out.l2 = l2.Hex();

  Digest l3;
  l3.Mix(static_cast<uint64_t>(result.l3->logs_scanned));
  l3.Mix(static_cast<uint64_t>(result.l3->logs_stopped));
  for (const core::L3Citation& citation : result.l3->citations) {
    l3.Mix(store.source_name(citation.app));
    l3.Mix(citation.entry);
    l3.Mix(static_cast<uint64_t>(citation.count));
    l3.Mix(citation.dependent);
  }
  out.l3 = l3.Hex();
  return out;
}

TEST(DailyModelsGoldenTest, PerDayModelsMatchTheRecordedDigests) {
  DatasetConfig config;
  config.simulation.num_days = 3;
  config.simulation.scale = 0.1;
  auto built = BuildDataset(config);
  ASSERT_TRUE(built.ok()) << built.status();
  const Dataset& dataset = built.value();

  core::PipelineConfig pipeline_config;
  pipeline_config.l1.minlogs = 10;  // scaled corpus
  const core::MiningPipeline pipeline(dataset.vocabulary, pipeline_config);
  const std::vector<DayDigests> expected = {
      {"946104bccee6da52", "3900a9dd33b2f330", "75fd5c0035bfa496"},
      {"8deff285a38b6816", "aba767963f18f83d", "52bc7bf39814dbd3"},
      {"838f739c5e2948ee", "0ee89cd2a8cfc0b7", "be63ee56aec55e46"},
  };
  ASSERT_EQ(static_cast<int>(expected.size()), dataset.num_days());
  for (int day = 0; day < dataset.num_days(); ++day) {
    SCOPED_TRACE("day " + std::to_string(day));
    auto result = pipeline.Run(dataset.store, dataset.day_begin(day),
                               dataset.day_end(day));
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result.value().all_ok()) << result.value().first_error();
    // Each day must have found something, or the digests pin nothing.
    ASSERT_FALSE(result.value().l1->Dependencies(dataset.store).empty());
    ASSERT_FALSE(result.value().l2->Dependencies(dataset.store).empty());
    ASSERT_FALSE(result.value()
                     .l3->Dependencies(dataset.store, dataset.vocabulary)
                     .empty());
    const DayDigests got = DigestDay(result.value(), dataset.store);
    EXPECT_EQ(got.l1, expected[static_cast<size_t>(day)].l1);
    EXPECT_EQ(got.l2, expected[static_cast<size_t>(day)].l2);
    EXPECT_EQ(got.l3, expected[static_cast<size_t>(day)].l3);
  }
}

}  // namespace
}  // namespace logmine::eval
