#include "simulation/corruptor.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "log/columnar.h"
#include "log/corpus_io.h"

namespace logmine::sim {
namespace {

std::vector<LogRecord> CleanRecords(size_t count) {
  std::vector<LogRecord> records;
  records.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    LogRecord record;
    record.client_ts = static_cast<TimeMs>(1000 + i * 250);
    record.server_ts = record.client_ts + 3;
    record.severity = i % 5 == 0 ? Severity::kWarning : Severity::kInfo;
    record.source = i % 2 == 0 ? "WebShop" : "DirSrv";
    record.host = "srv" + std::to_string(i % 4) + ".hug.ch";
    record.user = "u" + std::to_string(i % 7);
    record.message = "request " + std::to_string(i) + " handled | ok";
    records.push_back(std::move(record));
  }
  return records;
}

std::string CleanText(size_t count) {
  return LineCodec::EncodeAll(CleanRecords(count));
}

TEST(CorruptorTest, ZeroRateIsByteIdentical) {
  const std::string clean = CleanText(50);
  CorruptorConfig config;
  config.rate = 0.0;
  Rng rng(1);
  CorruptionReport report;
  const std::string out = CorruptCorpusText(clean, config, &rng, &report);
  EXPECT_EQ(out, clean);
  EXPECT_EQ(report.lines_total, 50u);
  EXPECT_EQ(report.lines_corrupted, 0u);
  EXPECT_EQ(report.expected_records, 50u);
  EXPECT_EQ(report.expected_quarantined, 0u);
}

TEST(CorruptorTest, BlankLinesAndTrailingStructureSurvive) {
  const std::string clean = "\n" + CleanText(3) + "\n";
  CorruptorConfig config;
  config.rate = 0.0;
  Rng rng(2);
  EXPECT_EQ(CorruptCorpusText(clean, config, &rng), clean);
}

TEST(CorruptorTest, SameSeedProducesIdenticalOutput) {
  const std::string clean = CleanText(120);
  CorruptorConfig config;
  config.rate = 0.5;
  Rng rng_a(42);
  Rng rng_b(42);
  CorruptionReport report_a;
  CorruptionReport report_b;
  const std::string out_a = CorruptCorpusText(clean, config, &rng_a, &report_a);
  const std::string out_b = CorruptCorpusText(clean, config, &rng_b, &report_b);
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(report_a.lines_corrupted, report_b.lines_corrupted);
  EXPECT_EQ(report_a.by_kind, report_b.by_kind);
  EXPECT_EQ(report_a.expected_by_class, report_b.expected_by_class);
  EXPECT_GT(report_a.lines_corrupted, 0u);
}

TEST(CorruptorTest, ReportMatchesQuarantineDecodeExactly) {
  // The acceptance bar for the whole robustness story: the counts the
  // corruptor says it injected are the counts lenient ingest reports,
  // class by class.
  const std::string clean = CleanText(300);
  CorruptorConfig config;
  config.rate = 0.3;
  Rng rng(7);
  CorruptionReport report;
  const std::string corrupted = CorruptCorpusText(clean, config, &rng, &report);

  DecodeOptions options;
  options.policy = DecodePolicy::kQuarantine;
  options.max_bad_fraction = 1.0;
  IngestStats stats;
  auto records = LineCodec::DecodeAll(corrupted, options, &stats);
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_EQ(records.value().size(), report.expected_records);
  EXPECT_EQ(stats.records_decoded, report.expected_records);
  EXPECT_EQ(stats.lines_quarantined, report.expected_quarantined);
  EXPECT_EQ(stats.lines_total,
            report.expected_records + report.expected_quarantined);
  for (size_t c = 0; c < kNumIngestErrorClasses; ++c) {
    EXPECT_EQ(stats.by_class[c], report.expected_by_class[c]) << c;
  }
  EXPECT_GT(report.lines_corrupted, 0u);
}

TEST(CorruptorTest, SemanticKindsKeepEveryLineDecodable) {
  const std::string clean = CleanText(80);
  CorruptorConfig config;
  config.rate = 1.0;
  config.truncate_weight = 0.0;
  config.mangle_escape_weight = 0.0;
  config.garbage_weight = 0.0;
  Rng rng(11);
  CorruptionReport report;
  const std::string corrupted = CorruptCorpusText(clean, config, &rng, &report);
  EXPECT_EQ(report.expected_quarantined, 0u);
  const size_t duplicates =
      report.by_kind[static_cast<size_t>(CorruptionKind::kDuplicate)];
  EXPECT_EQ(report.expected_records, report.lines_total + duplicates);
  // And the whole corpus still decodes fail-fast.
  auto records = LineCodec::DecodeAll(corrupted);
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_EQ(records.value().size(), report.expected_records);
}

TEST(CorruptorTest, ClockJumpShiftsBothTimestampsWithinTheBound) {
  const std::vector<LogRecord> originals = CleanRecords(40);
  const std::string clean = LineCodec::EncodeAll(originals);
  CorruptorConfig config;
  config.rate = 1.0;
  config.truncate_weight = 0.0;
  config.mangle_escape_weight = 0.0;
  config.garbage_weight = 0.0;
  config.reorder_weight = 0.0;
  config.duplicate_weight = 0.0;
  config.blank_context_weight = 0.0;
  config.max_clock_jump_ms = 5000;
  Rng rng(13);
  CorruptionReport report;
  const std::string corrupted = CorruptCorpusText(clean, config, &rng, &report);
  EXPECT_EQ(report.lines_corrupted, 40u);
  auto decoded = LineCodec::DecodeAll(corrupted);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const std::vector<LogRecord> records = decoded.value().Records();
  ASSERT_EQ(records.size(), originals.size());
  for (size_t i = 0; i < originals.size(); ++i) {
    const TimeMs jump =
        records[i].client_ts - originals[i].client_ts;
    EXPECT_NE(jump, 0) << i;
    EXPECT_LE(std::abs(jump), 5000) << i;
    // Client and server clocks jump together: the record's skew survives.
    EXPECT_EQ(records[i].server_ts - originals[i].server_ts, jump);
    EXPECT_EQ(records[i].message, originals[i].message);
  }
}

TEST(CorruptorTest, BlankContextClearsHostAndUserOnly) {
  const std::vector<LogRecord> originals = CleanRecords(30);
  const std::string clean = LineCodec::EncodeAll(originals);
  CorruptorConfig config;
  config.rate = 1.0;
  config.truncate_weight = 0.0;
  config.mangle_escape_weight = 0.0;
  config.garbage_weight = 0.0;
  config.reorder_weight = 0.0;
  config.duplicate_weight = 0.0;
  config.clock_jump_weight = 0.0;
  Rng rng(17);
  const std::string corrupted = CorruptCorpusText(clean, config, &rng);
  auto decoded = LineCodec::DecodeAll(corrupted);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const std::vector<LogRecord> records = decoded.value().Records();
  ASSERT_EQ(records.size(), originals.size());
  for (size_t i = 0; i < originals.size(); ++i) {
    EXPECT_TRUE(records[i].host.empty()) << i;
    EXPECT_TRUE(records[i].user.empty()) << i;
    EXPECT_EQ(records[i].source, originals[i].source);
    EXPECT_EQ(records[i].client_ts, originals[i].client_ts);
  }
}

TEST(CorruptorTest, FileWrapperRoundTripsAndReportsMissingInput) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string in_path = (dir / "logmine_corruptor_in.log").string();
  const std::string out_path = (dir / "logmine_corruptor_out.log").string();
  const std::string clean = CleanText(25);
  {
    std::ofstream out(in_path, std::ios::trunc);
    out << clean;
  }
  CorruptorConfig config;
  config.rate = 0.2;
  Rng rng_file(23);
  CorruptionReport report;
  ASSERT_TRUE(
      CorruptCorpusFile(in_path, out_path, config, &rng_file, &report).ok());
  // Byte-for-byte the same as corrupting the text directly with the seed.
  Rng rng_text(23);
  const std::string expected = CorruptCorpusText(clean, config, &rng_text);
  std::ifstream round(out_path);
  std::string written((std::istreambuf_iterator<char>(round)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(written, expected);
  // The corrupted file loads under quarantine ingest.
  DecodeOptions options;
  options.policy = DecodePolicy::kQuarantine;
  options.max_bad_fraction = 1.0;
  IngestStats stats;
  auto loaded = ReadCorpusFile(out_path, options, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().size(), report.expected_records);
  EXPECT_EQ(stats.lines_quarantined, report.expected_quarantined);

  EXPECT_FALSE(
      CorruptCorpusFile("/nonexistent/in.log", out_path, config, &rng_file)
          .ok());
  std::error_code ec;
  std::filesystem::remove(in_path, ec);
  std::filesystem::remove(out_path, ec);
}


TEST(CorruptorTest, ColumnarDictionaryCorruptionIsDetectedOnRead) {
  LogStore store;
  for (const LogRecord& record : CleanRecords(30)) {
    ASSERT_TRUE(store.Append(record).ok());
  }
  const std::string clean = EncodeColumnar(store);
  // Sanity: the clean bytes decode.
  ASSERT_TRUE(DecodeColumnar(clean).ok());

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    ColumnarFaultReport report;
    auto dirty = CorruptColumnarBytes(
        clean, ColumnarFaultKind::kCorruptDictionaryEntry, &rng, &report);
    ASSERT_TRUE(dirty.ok()) << dirty.status();
    EXPECT_EQ(report.kind, ColumnarFaultKind::kCorruptDictionaryEntry);
    EXPECT_GT(report.bytes_affected, 0u);
    EXPECT_NE(dirty.value(), clean);
    // The detection guarantee: never silently wrong records.
    auto loaded = DecodeColumnar(dirty.value());
    ASSERT_FALSE(loaded.ok()) << "seed " << seed;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
}

TEST(CorruptorTest, ColumnarTruncatedColumnBlockIsDetectedOnRead) {
  LogStore store;
  for (const LogRecord& record : CleanRecords(30)) {
    ASSERT_TRUE(store.Append(record).ok());
  }
  const std::string clean = EncodeColumnar(store);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    ColumnarFaultReport report;
    auto dirty = CorruptColumnarBytes(
        clean, ColumnarFaultKind::kTruncatedColumnBlock, &rng, &report);
    ASSERT_TRUE(dirty.ok()) << dirty.status();
    EXPECT_LT(dirty.value().size(), clean.size());
    EXPECT_EQ(report.bytes_affected, clean.size() - dirty.value().size());
    auto loaded = DecodeColumnar(dirty.value());
    ASSERT_FALSE(loaded.ok()) << "seed " << seed;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
}

TEST(CorruptorTest, ColumnarCorruptorRefusesNonColumnarInput) {
  Rng rng(7);
  auto result = CorruptColumnarBytes(
      CleanText(5), ColumnarFaultKind::kCorruptDictionaryEntry, &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CorruptorTest, ColumnarFileWrapperIsDeterministic) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string in_path = (dir / "logmine_columnar_in.lmc").string();
  const std::string out_path = (dir / "logmine_columnar_out.lmc").string();
  LogStore store;
  for (const LogRecord& record : CleanRecords(20)) {
    ASSERT_TRUE(store.Append(record).ok());
  }
  ASSERT_TRUE(WriteColumnarFile(in_path, store).ok());

  Rng rng_file(23);
  ColumnarFaultReport report;
  ASSERT_TRUE(CorruptColumnarFile(in_path, out_path,
                                  ColumnarFaultKind::kTruncatedColumnBlock,
                                  &rng_file, &report)
                  .ok());
  std::ifstream round(out_path, std::ios::binary);
  std::string written((std::istreambuf_iterator<char>(round)),
                      std::istreambuf_iterator<char>());
  Rng rng_bytes(23);
  auto expected = CorruptColumnarBytes(
      EncodeColumnar(store), ColumnarFaultKind::kTruncatedColumnBlock,
      &rng_bytes);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(written, expected.value());
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

}  // namespace
}  // namespace logmine::sim
