// End-to-end robustness property: corrupt the simulated corpus at
// increasing rates, re-ingest leniently, re-mine, and check that
//   (a) at rate 0 the lenient path is byte-identical to the strict one,
//   (b) the ingest report matches the injected faults class by class,
//   (c) mining completes with partial-result semantics and the three
//       techniques degrade gracefully (documented bound: precision and
//       recall stay within 0.25 of the clean run at <= 10% corruption).

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluation.h"
#include "core/pipeline.h"
#include "eval/dataset.h"
#include "log/columnar.h"
#include "log/corpus_io.h"
#include "simulation/corruptor.h"
#include "util/snapshot.h"

namespace logmine::eval {
namespace {

// How far each score may fall below the clean run (see DESIGN.md §8).
constexpr double kMaxDegradation = 0.25;

struct MiningScores {
  core::ConfusionCounts l1;
  core::ConfusionCounts l2;
  core::ConfusionCounts l3;
};

class CorruptionRobustnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.simulation.num_days = 1;
    config.simulation.scale = 0.3;
    auto built = BuildDataset(config);
    ASSERT_TRUE(built.ok()) << built.status();
    dataset_ = new Dataset(std::move(built).value());

    // The simulator's store is indexed, so its records are in time order.
    ASSERT_TRUE(dataset_->store.index_built());
    clean_text_ =
        new std::string(LineCodec::EncodeAll(dataset_->store.Records()));

    clean_scores_ = new MiningScores(Mine(dataset_->store));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    delete clean_text_;
    clean_text_ = nullptr;
    delete clean_scores_;
    clean_scores_ = nullptr;
  }

  static core::PipelineConfig MiningConfig() {
    core::PipelineConfig config;
    config.l1.minlogs = 20;  // scaled corpus
    return config;
  }

  // Mines the whole day-0 window and scores each technique against the
  // scenario reference models. Fails the test if any miner fails.
  static MiningScores Mine(const LogStore& store) {
    core::MiningPipeline pipeline(dataset_->vocabulary, MiningConfig());
    auto result =
        pipeline.Run(store, dataset_->day_begin(0), dataset_->day_end(0));
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result.value().all_ok()) << result.value().first_error();
    MiningScores scores;
    scores.l1 = core::Evaluate(result.value().l1->Dependencies(store),
                               dataset_->reference_pairs,
                               dataset_->universe_pairs);
    scores.l2 = core::Evaluate(result.value().l2->Dependencies(store),
                               dataset_->reference_pairs,
                               dataset_->universe_pairs);
    scores.l3 = core::Evaluate(
        result.value().l3->Dependencies(store, dataset_->vocabulary),
        dataset_->reference_services, dataset_->universe_services);
    return scores;
  }

  // Corrupts the clean corpus at `rate`, re-ingests it leniently
  // (verifying the report against the ingest stats) and returns the
  // reloaded store.
  static LogStore CorruptAndReload(double rate, uint64_t seed) {
    sim::CorruptorConfig config;
    config.rate = rate;
    Rng rng(seed);
    sim::CorruptionReport report;
    const std::string corrupted =
        sim::CorruptCorpusText(*clean_text_, config, &rng, &report);

    DecodeOptions options;
    options.policy = DecodePolicy::kQuarantine;
    options.max_bad_fraction = 0.2;
    IngestStats stats;
    auto records = LineCodec::DecodeAll(corrupted, options, &stats);
    EXPECT_TRUE(records.ok()) << records.status();
    // Injected == reported, class by class.
    EXPECT_EQ(stats.records_decoded, report.expected_records);
    EXPECT_EQ(stats.lines_quarantined, report.expected_quarantined);
    for (size_t c = 0; c < kNumIngestErrorClasses; ++c) {
      EXPECT_EQ(stats.by_class[c], report.expected_by_class[c]) << c;
    }

    LogStore store = std::move(records).value();
    store.BuildIndex();
    return store;
  }

  static void ExpectWithinBound(const core::ConfusionCounts& corrupted,
                                const core::ConfusionCounts& clean,
                                const char* technique) {
    EXPECT_GE(corrupted.precision(), clean.precision() - kMaxDegradation)
        << technique << ": precision fell from " << clean.precision()
        << " to " << corrupted.precision();
    EXPECT_GE(corrupted.recall(), clean.recall() - kMaxDegradation)
        << technique << ": recall fell from " << clean.recall() << " to "
        << corrupted.recall();
  }

  static Dataset* dataset_;
  static std::string* clean_text_;
  static MiningScores* clean_scores_;
};

Dataset* CorruptionRobustnessTest::dataset_ = nullptr;
std::string* CorruptionRobustnessTest::clean_text_ = nullptr;
MiningScores* CorruptionRobustnessTest::clean_scores_ = nullptr;

TEST_F(CorruptionRobustnessTest, CleanRunIsWorthDegradingFrom) {
  // Guard the baseline itself so a degraded bound cannot pass vacuously.
  EXPECT_GT(clean_scores_->l1.true_positives, 3);
  EXPECT_GT(clean_scores_->l2.true_positives, 3);
  EXPECT_GT(clean_scores_->l3.true_positives, 50);
  EXPECT_GT(clean_scores_->l3.precision(), 0.8);
}

TEST_F(CorruptionRobustnessTest, ZeroCorruptionQuarantineMatchesFailFast) {
  sim::CorruptorConfig config;
  config.rate = 0.0;
  Rng rng(99);
  EXPECT_EQ(sim::CorruptCorpusText(*clean_text_, config, &rng), *clean_text_);

  auto strict = LineCodec::DecodeAll(*clean_text_);
  ASSERT_TRUE(strict.ok()) << strict.status();
  DecodeOptions lenient;
  lenient.policy = DecodePolicy::kQuarantine;
  lenient.max_bad_fraction = 0.2;
  IngestStats stats;
  auto quarantine = LineCodec::DecodeAll(*clean_text_, lenient, &stats);
  ASSERT_TRUE(quarantine.ok()) << quarantine.status();
  EXPECT_EQ(stats.lines_quarantined, 0u);
  // Byte-identical round trip: the lenient path decoded the same records.
  EXPECT_EQ(LineCodec::EncodeAll(quarantine.value().Records()),
            LineCodec::EncodeAll(strict.value().Records()));
}

TEST_F(CorruptionRobustnessTest, OnePercentCorruptionBarelyDents) {
  const LogStore store = CorruptAndReload(0.01, 4242);
  const MiningScores scores = Mine(store);
  ExpectWithinBound(scores.l1, clean_scores_->l1, "L1");
  ExpectWithinBound(scores.l2, clean_scores_->l2, "L2");
  ExpectWithinBound(scores.l3, clean_scores_->l3, "L3");
}

TEST_F(CorruptionRobustnessTest, TenPercentCorruptionDegradesGracefully) {
  const LogStore store = CorruptAndReload(0.10, 4242);
  const MiningScores scores = Mine(store);
  ExpectWithinBound(scores.l1, clean_scores_->l1, "L1");
  ExpectWithinBound(scores.l2, clean_scores_->l2, "L2");
  ExpectWithinBound(scores.l3, clean_scores_->l3, "L3");
}

TEST_F(CorruptionRobustnessTest, FailingMinerStillDeliversSiblingModels) {
  const LogStore store = CorruptAndReload(0.10, 777);
  core::MiningPipeline pipeline(core::ServiceVocabulary{}, MiningConfig());
  auto result =
      pipeline.Run(store, dataset_->day_begin(0), dataset_->day_end(0));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result.value().all_ok());
  EXPECT_FALSE(result.value().l3_status.ok());
  EXPECT_TRUE(result.value().l1_status.ok());
  EXPECT_TRUE(result.value().l2_status.ok());
  ASSERT_TRUE(result.value().l1.has_value());
  ASSERT_TRUE(result.value().l2.has_value());
  EXPECT_FALSE(result.value().l3.has_value());
  EXPECT_GT(
      core::Evaluate(result.value().l1->Dependencies(store),
                     dataset_->reference_pairs, dataset_->universe_pairs)
          .true_positives,
      0);
}

TEST_F(CorruptionRobustnessTest, ColumnarFileTruncatedAtEverySectionIsAParseError) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("logmine_truncated_columnar_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "corpus.lmc").string();
  ASSERT_TRUE(WriteColumnarFile(path, dataset_->store).ok());
  auto clean = ReadFileToString(path);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(ReadCorpusFile(path).ok());

  // Walk the container (u32 magic, u32 version, then per section u32
  // name_len | name | u64 payload_len | payload, then the footer) and
  // cut the file after the header and after every section.
  const std::string& bytes = clean.value();
  std::vector<size_t> boundaries = {8};
  for (size_t pos = 8; pos + 8 < bytes.size();) {
    uint32_t name_len;
    std::memcpy(&name_len, bytes.data() + pos, 4);
    uint64_t payload_len;
    std::memcpy(&payload_len, bytes.data() + pos + 4 + name_len, 8);
    pos += 4 + name_len + 8 + payload_len;
    boundaries.push_back(pos);
  }
  ASSERT_EQ(boundaries.size(), 6u);  // header + cmeta ctime cids cdict ctext
  ASSERT_EQ(boundaries.back(), bytes.size() - 8);  // the footer follows
  for (size_t keep : boundaries) {
    ASSERT_TRUE(WriteFileAtomic(path, std::string_view(bytes).substr(0, keep))
                    .ok());
    auto read = ReadCorpusFile(path);
    ASSERT_FALSE(read.ok()) << "cut at " << keep << " bytes read back";
    EXPECT_EQ(read.status().code(), StatusCode::kParseError)
        << "cut at " << keep << ": " << read.status();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace logmine::eval
