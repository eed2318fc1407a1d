#include "log/corpus_io.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>
#include <unistd.h>

namespace logmine {
namespace {

class CorpusIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs every test in its own process, often in the same
    // millisecond, so the path is keyed by pid rather than by gtest's
    // time-based random seed.
    path_ = std::filesystem::temp_directory_path() /
            ("logmine_corpus_io_test_" + std::to_string(::getpid()) + ".log");
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::filesystem::path path_;
};

LogRecord Rec(TimeMs ts, std::string source, std::string message) {
  LogRecord record;
  record.client_ts = ts;
  record.server_ts = ts + 5;
  record.source = std::move(source);
  record.host = "h";
  record.user = "u";
  record.message = std::move(message);
  return record;
}

TEST_F(CorpusIoTest, RoundTripsStore) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(300, "B", "later")).ok());
  ASSERT_TRUE(store.Append(Rec(100, "A", "pipe | in message")).ok());
  store.BuildIndex();
  ASSERT_TRUE(WriteCorpusFile(store, path_.string()).ok());

  auto loaded = ReadCorpusFile(path_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().size(), 2u);
  EXPECT_TRUE(loaded.value().index_built());
  // Written in time order -> record 0 is the earlier one.
  EXPECT_EQ(loaded.value().GetRecord(0).source, "A");
  EXPECT_EQ(loaded.value().GetRecord(0).message, "pipe | in message");
  EXPECT_EQ(loaded.value().GetRecord(1).source, "B");
}

TEST_F(CorpusIoTest, EmptyStoreYieldsEmptyFile) {
  LogStore store;
  store.BuildIndex();
  ASSERT_TRUE(WriteCorpusFile(store, path_.string()).ok());
  auto loaded = ReadCorpusFile(path_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

TEST_F(CorpusIoTest, MissingFileIsNotFound) {
  auto loaded = ReadCorpusFile("/nonexistent/dir/corpus.log");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(CorpusIoTest, UnwritablePathFails) {
  LogStore store;
  store.BuildIndex();
  EXPECT_FALSE(WriteCorpusFile(store, "/nonexistent/dir/out.log").ok());
}

TEST_F(CorpusIoTest, CorruptFileReportsParseError) {
  {
    std::FILE* f = std::fopen(path_.string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a log line\n", f);
    std::fclose(f);
  }
  auto loaded = ReadCorpusFile(path_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(CorpusIoTest, WriteLeavesNoTempFileBehind) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(100, "A", "one")).ok());
  store.BuildIndex();
  ASSERT_TRUE(WriteCorpusFile(store, path_.string()).ok());
  EXPECT_TRUE(std::filesystem::exists(path_));
  EXPECT_FALSE(std::filesystem::exists(path_.string() + ".tmp"));
}

TEST_F(CorpusIoTest, WriteReplacesExistingCorpusAtomically) {
  // An existing corpus must survive intact up to the rename; after a
  // successful write the file holds exactly the new content.
  LogStore old_store;
  ASSERT_TRUE(old_store.Append(Rec(100, "OLD", "old corpus")).ok());
  old_store.BuildIndex();
  ASSERT_TRUE(WriteCorpusFile(old_store, path_.string()).ok());

  LogStore new_store;
  ASSERT_TRUE(new_store.Append(Rec(200, "NEW", "new corpus")).ok());
  ASSERT_TRUE(new_store.Append(Rec(300, "NEW", "second")).ok());
  new_store.BuildIndex();
  ASSERT_TRUE(WriteCorpusFile(new_store, path_.string()).ok());

  auto loaded = ReadCorpusFile(path_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value().GetRecord(0).source, "NEW");
  EXPECT_FALSE(std::filesystem::exists(path_.string() + ".tmp"));
}

TEST_F(CorpusIoTest, QuarantineReadSkipsBadLinesAndReportsStats) {
  {
    std::FILE* f = std::fopen(path_.string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    LogStore store;
    ASSERT_TRUE(store.Append(Rec(100, "A", "first")).ok());
    ASSERT_TRUE(store.Append(Rec(200, "B", "second")).ok());
    store.BuildIndex();
    std::fputs(LineCodec::Encode(store.GetRecord(0)).c_str(), f);
    std::fputs("\nnot a log line\n", f);
    std::fputs(LineCodec::Encode(store.GetRecord(1)).c_str(), f);
    std::fputs("\n", f);
    std::fclose(f);
  }

  // Fail-fast still rejects the file ...
  ASSERT_FALSE(ReadCorpusFile(path_.string()).ok());

  // ... while quarantine mode loads the two good records.
  DecodeOptions options;
  options.policy = DecodePolicy::kQuarantine;
  options.max_bad_fraction = 0.5;
  IngestStats stats;
  auto loaded = ReadCorpusFile(path_.string(), options, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().size(), 2u);
  EXPECT_TRUE(loaded.value().index_built());
  EXPECT_EQ(stats.lines_total, 3u);
  EXPECT_EQ(stats.lines_quarantined, 1u);
  EXPECT_EQ(stats.by_class[static_cast<size_t>(
                IngestErrorClass::kFieldCount)],
            1u);

  // A tighter budget rejects the same file; the reused stats struct
  // accumulates the second read's tallies on top of the first.
  options.max_bad_fraction = 0.1;
  auto rejected = ReadCorpusFile(path_.string(), options, &stats);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(stats.lines_total, 6u);
  EXPECT_EQ(stats.lines_quarantined, 2u);
}

TEST_F(CorpusIoTest, TruncatedFinalLineIsQuarantinedNotFatal) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(100, "A", "first")).ok());
  ASSERT_TRUE(store.Append(Rec(200, "B", "second")).ok());
  ASSERT_TRUE(store.Append(Rec(300, "C", "third")).ok());
  store.BuildIndex();
  ASSERT_TRUE(WriteCorpusFile(store, path_.string()).ok());

  // Cut the file a few bytes into the last record — the shape a foreign
  // writer killed mid-append (or a live tail read mid-line) leaves.
  std::string text;
  {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  const size_t last_line = text.rfind('\n', text.size() - 2) + 1;
  {
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
    out << text.substr(0, last_line + 5);  // mid-timestamp: unparsable
  }

  // Even the fail-fast read loses only the cut-off line, not the file.
  auto loaded = ReadCorpusFile(path_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value().GetRecord(0).source, "A");
  EXPECT_EQ(loaded.value().GetRecord(1).source, "B");

  // The stats variant reports it under its distinct error class.
  DecodeOptions options;
  IngestStats stats;
  auto again = ReadCorpusFile(path_.string(), options, &stats);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value().size(), 2u);
  EXPECT_EQ(stats.lines_quarantined, 1u);
  EXPECT_EQ(
      stats.by_class[static_cast<size_t>(IngestErrorClass::kTruncatedLine)],
      1u);
}


TEST_F(CorpusIoTest, FailedWriteNeverLeavesATempFile) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(100, "A", "one")).ok());
  store.BuildIndex();
  const std::string bad_path = "/nonexistent/dir/out.log";
  ASSERT_FALSE(WriteCorpusFile(store, bad_path).ok());
  EXPECT_FALSE(std::filesystem::exists(bad_path + ".tmp"));
}

TEST_F(CorpusIoTest, ChunkedReadMatchesSerialRead) {
  LogStore store;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        store.Append(Rec(1000 + i, "S" + std::to_string(i % 7),
                         "message " + std::to_string(i)))
            .ok());
  }
  store.BuildIndex();
  ASSERT_TRUE(WriteCorpusFile(store, path_.string()).ok());

  DecodeOptions serial;
  serial.num_chunks = 1;
  auto serial_store = ReadCorpusFile(path_.string(), serial);
  ASSERT_TRUE(serial_store.ok()) << serial_store.status();
  for (int num_chunks : {2, 7, 16}) {
    DecodeOptions chunked;
    chunked.num_chunks = num_chunks;
    auto chunked_store = ReadCorpusFile(path_.string(), chunked);
    ASSERT_TRUE(chunked_store.ok()) << chunked_store.status();
    ASSERT_EQ(chunked_store.value().size(), serial_store.value().size());
    for (size_t i = 0; i < serial_store.value().size(); i += 13) {
      EXPECT_EQ(LineCodec::Encode(chunked_store.value().GetRecord(i)),
                LineCodec::Encode(serial_store.value().GetRecord(i)));
    }
  }
}

}  // namespace
}  // namespace logmine
