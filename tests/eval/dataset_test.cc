#include "eval/dataset.h"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>
#include <unistd.h>

#include "log/codec.h"
#include "log/columnar.h"
#include "util/snapshot.h"

namespace logmine::eval {
namespace {

class DatasetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.simulation.num_days = 2;
    config.simulation.scale = 0.05;
    auto built = BuildDataset(config);
    ASSERT_TRUE(built.ok()) << built.status();
    dataset_ = new Dataset(std::move(built).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static Dataset* dataset_;
};

Dataset* DatasetTest::dataset_ = nullptr;

TEST_F(DatasetTest, UniversesMatchPaperArithmetic) {
  // 54 apps -> (54^2 - 54) / 2 = 1431 pairs; 54 x 47 app-entry cells.
  EXPECT_EQ(dataset_->universe_pairs, 1431);
  EXPECT_EQ(dataset_->universe_services, 54 * 47);
}

TEST_F(DatasetTest, ReferencesMirrorScenario) {
  EXPECT_EQ(dataset_->reference_pairs.size(),
            dataset_->scenario.interaction_pairs.size());
  EXPECT_EQ(dataset_->reference_services.size(),
            dataset_->scenario.app_service_deps.size());
}

TEST_F(DatasetTest, VocabularyMatchesDirectory) {
  ASSERT_EQ(dataset_->vocabulary.entries.size(),
            dataset_->scenario.directory.size());
  for (size_t i = 0; i < dataset_->vocabulary.entries.size(); ++i) {
    EXPECT_EQ(dataset_->vocabulary.entries[i].id,
              dataset_->scenario.directory.entry(i).id);
  }
}

TEST_F(DatasetTest, EntryOwnerMapIsComplete) {
  EXPECT_EQ(dataset_->entry_owner.size(),
            dataset_->scenario.directory.size());
  for (const auto& [id, owner] : dataset_->entry_owner) {
    EXPECT_GE(dataset_->scenario.topology.FindApp(owner), 0) << owner;
    EXPECT_TRUE(dataset_->scenario.directory.FindById(id).ok()) << id;
  }
}

TEST_F(DatasetTest, DayWindowsTileTheSimulation) {
  EXPECT_EQ(dataset_->num_days(), 2);
  EXPECT_EQ(dataset_->day_begin(0), dataset_->simulation.start);
  EXPECT_EQ(dataset_->day_end(0), dataset_->day_begin(1));
  EXPECT_GE(dataset_->store.min_ts(),
            dataset_->day_begin(0) - 5000);  // skew slack
  EXPECT_LE(dataset_->store.max_ts(),
            dataset_->day_end(1) + kMillisPerHour);  // async tail slack
}

TEST_F(DatasetTest, StoreIsIndexedAndPopulated) {
  EXPECT_TRUE(dataset_->store.index_built());
  EXPECT_GT(dataset_->store.size(), 5000u);
  EXPECT_EQ(dataset_->store.num_sources(), 54u);
}


class DatasetCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Keyed by pid: ctest starts each test as its own process, often
    // within the millisecond gtest's time-based random seed resolves.
    dir_ = std::filesystem::temp_directory_path() /
           ("logmine_dataset_cache_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    config_.simulation.num_days = 1;
    config_.simulation.scale = 0.02;
    config_.corpus_cache_path = (dir_ / "corpus.lmc").string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
  DatasetConfig config_;
};

TEST_F(DatasetCacheTest, CachedRebuildIsBitIdentical) {
  auto first = BuildDataset(config_);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(std::filesystem::exists(config_.corpus_cache_path));

  auto second = BuildDataset(config_);
  ASSERT_TRUE(second.ok()) << second.status();
  const Dataset& a = first.value();
  const Dataset& b = second.value();
  ASSERT_EQ(a.store.size(), b.store.size());
  for (size_t i = 0; i < a.store.size(); i += 97) {
    EXPECT_EQ(LineCodec::Encode(a.store.GetRecord(i)),
              LineCodec::Encode(b.store.GetRecord(i)));
  }
  EXPECT_TRUE(b.store.index_built());
  EXPECT_EQ(a.summary.total_logs, b.summary.total_logs);
  EXPECT_EQ(a.summary.logs_per_day, b.summary.logs_per_day);
  EXPECT_EQ(a.summary.context_logs, b.summary.context_logs);
  EXPECT_EQ(a.summary.num_identified_sessions,
            b.summary.num_identified_sessions);
}

TEST_F(DatasetCacheTest, ConfigChangeInvalidatesTheCache) {
  auto first = BuildDataset(config_);
  ASSERT_TRUE(first.ok()) << first.status();
  DatasetConfig changed = config_;
  changed.simulation.seed += 1;
  EXPECT_NE(DatasetFingerprint(config_), DatasetFingerprint(changed));
  auto second = BuildDataset(changed);
  ASSERT_TRUE(second.ok()) << second.status();
  // A different seed simulates a different corpus; a stale-cache hit
  // would hand back the first one.
  ASSERT_NE(first.value().store.size(), 0u);
  ASSERT_NE(second.value().store.size(), 0u);
  EXPECT_NE(LineCodec::Encode(first.value().store.GetRecord(0)),
            LineCodec::Encode(second.value().store.GetRecord(0)));
}

TEST_F(DatasetCacheTest, CorruptCacheFallsBackToSimulation) {
  auto first = BuildDataset(config_);
  ASSERT_TRUE(first.ok()) << first.status();
  {
    std::ofstream out(config_.corpus_cache_path,
                      std::ios::binary | std::ios::trunc);
    out << "LMSNnot really a snapshot";
  }
  auto second = BuildDataset(config_);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first.value().summary.total_logs,
            second.value().summary.total_logs);
}

TEST_F(DatasetCacheTest, HostileDayCountFallsBackToSimulation) {
  auto first = BuildDataset(config_);
  ASSERT_TRUE(first.ok()) << first.status();
  // Rebuild the cache around a CRC-valid summary that claims 2^40 days:
  // the same version and fingerprint, the same corpus sections.
  uint32_t version = 0;
  uint64_t fingerprint = 0;
  {
    auto bytes = ReadFileToString(config_.corpus_cache_path);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    auto reader = SnapshotReader::Parse(bytes.value());
    ASSERT_TRUE(reader.ok()) << reader.status();
    auto meta = reader.value().Section("dsmeta");
    ASSERT_TRUE(meta.ok()) << meta.status();
    version = meta.value().ReadU32().value();
    fingerprint = meta.value().ReadU64().value();
  }
  SnapshotWriter w;
  w.BeginSection("dsmeta");
  w.PutU32(version);
  w.PutU64(fingerprint);
  w.EndSection();
  w.BeginSection("dssum");
  w.PutU64(uint64_t{1} << 40);
  w.EndSection();
  AppendColumnarSections(first.value().store, &w);
  ASSERT_TRUE(
      WriteFileAtomic(config_.corpus_cache_path, std::move(w).Finish()).ok());

  auto second = BuildDataset(config_);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first.value().summary.logs_per_day,
            second.value().summary.logs_per_day);
  EXPECT_EQ(first.value().store, second.value().store);
}

}  // namespace
}  // namespace logmine::eval
