#include "log/codec.h"

#include <gtest/gtest.h>

#include <utility>

#include "util/rng.h"
#include "util/string_util.h"
#include "util/time_util.h"

namespace logmine {
namespace {

LogRecord MakeRecord() {
  LogRecord record;
  record.client_ts = TimeFromCivil({.year = 2005, .month = 12, .day = 6,
                                    .hour = 8, .minute = 30, .second = 1,
                                    .millisecond = 250});
  record.server_ts = record.client_ts + 1234;
  record.severity = Severity::kWarning;
  record.source = "DPIFormidoc";
  record.host = "ws-042";
  record.user = "u0007";
  record.message = "Invoke externalService [fct [notify]]";
  return record;
}

TEST(LineCodecTest, EncodeProducesSevenFields) {
  const std::string line = LineCodec::Encode(MakeRecord());
  EXPECT_EQ(std::count(line.begin(), line.end(), '|'), 6);
  EXPECT_NE(line.find("2005-12-06 08:30:01.250"), std::string::npos);
  EXPECT_NE(line.find("WARN"), std::string::npos);
}

TEST(LineCodecTest, RoundTrip) {
  const LogRecord record = MakeRecord();
  auto decoded = LineCodec::Decode(LineCodec::Encode(record));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), record);
}

TEST(LineCodecTest, RoundTripEmptyOptionalFields) {
  LogRecord record = MakeRecord();
  record.host.clear();
  record.user.clear();
  record.message.clear();
  auto decoded = LineCodec::Decode(LineCodec::Encode(record));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), record);
}

TEST(LineCodecTest, EscapesSpecialCharacters) {
  LogRecord record = MakeRecord();
  record.message = "pipes | and \\ backslashes\nand newlines";
  const std::string line = LineCodec::Encode(record);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto decoded = LineCodec::Decode(line);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().message, record.message);
}

TEST(LineCodecTest, FuzzRoundTripArbitraryMessages) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    LogRecord record = MakeRecord();
    record.message.clear();
    const int len = static_cast<int>(rng.UniformInt(0, 60));
    for (int i = 0; i < len; ++i) {
      record.message +=
          static_cast<char>(rng.UniformInt(1, 126));  // any non-NUL ASCII
    }
    auto decoded = LineCodec::Decode(LineCodec::Encode(record));
    ASSERT_TRUE(decoded.ok()) << record.message;
    EXPECT_EQ(decoded.value().message, record.message);
  }
}

TEST(LineCodecTest, RejectsWrongFieldCount) {
  EXPECT_FALSE(LineCodec::Decode("a|b|c").ok());
  EXPECT_FALSE(LineCodec::Decode("").ok());
  const std::string line = LineCodec::Encode(MakeRecord());
  EXPECT_FALSE(LineCodec::Decode(line + "|extra").ok());
}

TEST(LineCodecTest, RejectsBadTimestampSeverityAndEscapes) {
  const std::string good = LineCodec::Encode(MakeRecord());
  std::string bad_ts = good;
  bad_ts.replace(0, 4, "20xx");
  EXPECT_FALSE(LineCodec::Decode(bad_ts).ok());

  std::string bad_sev = ReplaceAll(good, "WARN", "LOUD");
  EXPECT_FALSE(LineCodec::Decode(bad_sev).ok());

  EXPECT_FALSE(LineCodec::Decode(good + "\\").ok());      // dangling escape
  EXPECT_FALSE(LineCodec::Decode(good + "\\q").ok());     // unknown escape
}

TEST(LineCodecTest, HostileTimestampYearsAreBadTimestampNotOverflow) {
  // Regression: these years overflowed signed integers in the timestamp
  // parser; run under the asan preset, which traps on the overflow.
  for (const std::string ts : {"-2147483648-01-01 00:00:00.000",
                               "999999999-06-01 00:00:00.000"}) {
    IngestErrorClass error_class = IngestErrorClass::kFieldCount;
    auto result = LineCodec::Decode(
        ts + "|2005-12-06 08:30:01.250|INFO|src|host|user|message",
        &error_class);
    ASSERT_FALSE(result.ok()) << ts;
    EXPECT_EQ(error_class, IngestErrorClass::kBadTimestamp);
    EXPECT_EQ(result.status().message(),
              "timestamp field out of range: " + ts);
  }
}

TEST(LineCodecTest, RejectsEmptySource) {
  LogRecord record = MakeRecord();
  record.source.clear();
  // Encode happily writes it; Decode must reject.
  EXPECT_FALSE(LineCodec::Decode(LineCodec::Encode(record)).ok());
}

TEST(LineCodecTest, DecodeArbitraryGarbageNeverCrashes) {
  // Robustness property: Decode on random bytes must return cleanly
  // (usually a ParseError) for any input.
  Rng rng(777);
  for (int trial = 0; trial < 500; ++trial) {
    std::string line;
    const int len = static_cast<int>(rng.UniformInt(0, 120));
    for (int i = 0; i < len; ++i) {
      line += static_cast<char>(rng.UniformInt(1, 255));
    }
    auto result = LineCodec::Decode(line);  // must not crash or hang
    if (result.ok()) {
      // If it decoded, re-encoding must round-trip.
      auto again = LineCodec::Decode(LineCodec::Encode(result.value()));
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again.value(), result.value());
    }
  }
}

TEST(LineCodecTest, EncodeAllDecodeAllRoundTrip) {
  std::vector<LogRecord> records;
  for (int i = 0; i < 5; ++i) {
    LogRecord record = MakeRecord();
    record.client_ts += i * 1000;
    record.message = "line " + std::to_string(i);
    records.push_back(record);
  }
  auto decoded = LineCodec::DecodeAll(LineCodec::EncodeAll(records));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().Records(), records);
}

TEST(LineCodecTest, DecodeAllSkipsBlankLinesAndReportsLineNumbers) {
  const std::string text =
      LineCodec::Encode(MakeRecord()) + "\n\n  \n" +
      LineCodec::Encode(MakeRecord()) + "\n";
  auto decoded = LineCodec::DecodeAll(text);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().size(), 2u);

  auto failed = LineCodec::DecodeAll("\n\ngarbage\n");
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("line 3"), std::string::npos);
}

TEST(LineCodecTest, DecodeAllReportsByteOffsetAlongsideLineNumber) {
  const std::string good = LineCodec::Encode(MakeRecord());
  const std::string text = good + "\n\ngarbage\n";
  auto failed = LineCodec::DecodeAll(text);
  ASSERT_FALSE(failed.ok());
  const size_t offset = text.find("garbage");
  EXPECT_NE(failed.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(failed.status().message().find(
                "(byte " + std::to_string(offset) + ")"),
            std::string::npos) << failed.status();
}

TEST(LineCodecTest, DecodeAllFailsFastOnEmptySourceField) {
  LogRecord no_source = MakeRecord();
  no_source.source.clear();
  const std::string text = LineCodec::Encode(MakeRecord()) + "\n" +
                           LineCodec::Encode(no_source) + "\n";
  auto failed = LineCodec::DecodeAll(text);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(failed.status().message().find("empty source field"),
            std::string::npos);
}

TEST(LineCodecTest, DecodeAllFailsFastOnDanglingEscape) {
  const std::string text = LineCodec::Encode(MakeRecord()) + "\\\n";
  auto failed = LineCodec::DecodeAll(text);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(failed.status().message().find("dangling escape"),
            std::string::npos);
}

TEST(LineCodecTest, DecodeClassifiesEveryErrorClass) {
  const std::string good = LineCodec::Encode(MakeRecord());
  LogRecord no_source = MakeRecord();
  no_source.source.clear();
  const std::vector<std::pair<std::string, IngestErrorClass>> cases = {
      {good + "\\", IngestErrorClass::kBadEscape},
      {good + "\\q", IngestErrorClass::kBadEscape},
      {"a|b|c", IngestErrorClass::kFieldCount},
      {ReplaceAll(good, "2005", "20xx"), IngestErrorClass::kBadTimestamp},
      {ReplaceAll(good, "WARN", "LOUD"), IngestErrorClass::kBadSeverity},
      {LineCodec::Encode(no_source), IngestErrorClass::kEmptySource},
  };
  for (const auto& [line, expected] : cases) {
    IngestErrorClass error_class = IngestErrorClass::kFieldCount;
    auto result = LineCodec::Decode(line, &error_class);
    ASSERT_FALSE(result.ok()) << line;
    EXPECT_EQ(error_class, expected) << line;
  }
}

TEST(LineCodecTest, QuarantineDecodeSkipsBadLinesAndTalliesStats) {
  LogRecord no_source = MakeRecord();
  no_source.source.clear();
  const std::string good = LineCodec::Encode(MakeRecord());
  const std::string text = good + "\n" +                       // ok
                           "garbage\n" +                       // field count
                           good + "\\\n" +                     // bad escape
                           LineCodec::Encode(no_source) +      // empty source
                           "\n\n" +                            // blank
                           ReplaceAll(good, "WARN", "LOUD") +  // bad severity
                           "\n" +
                           ReplaceAll(good, "2005", "20xx") +  // bad ts
                           "\n" + good + "\n";                 // ok

  DecodeOptions options;
  options.policy = DecodePolicy::kQuarantine;
  options.max_bad_fraction = 1.0;
  IngestStats stats;
  auto decoded = LineCodec::DecodeAll(text, options, &stats);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value().size(), 2u);

  EXPECT_EQ(stats.lines_total, 7u);
  EXPECT_EQ(stats.records_decoded, 2u);
  EXPECT_EQ(stats.lines_quarantined, 5u);
  EXPECT_DOUBLE_EQ(stats.bad_fraction(), 5.0 / 7.0);
  using C = IngestErrorClass;
  EXPECT_EQ(stats.by_class[static_cast<size_t>(C::kFieldCount)], 1u);
  EXPECT_EQ(stats.by_class[static_cast<size_t>(C::kBadEscape)], 1u);
  EXPECT_EQ(stats.by_class[static_cast<size_t>(C::kEmptySource)], 1u);
  EXPECT_EQ(stats.by_class[static_cast<size_t>(C::kBadSeverity)], 1u);
  EXPECT_EQ(stats.by_class[static_cast<size_t>(C::kBadTimestamp)], 1u);

  ASSERT_EQ(stats.samples.size(), 5u);
  EXPECT_EQ(stats.samples[0].line_number, 2u);
  EXPECT_EQ(stats.samples[0].byte_offset, text.find("garbage"));
  EXPECT_EQ(stats.samples[0].error_class, C::kFieldCount);
  EXPECT_EQ(stats.samples[0].text, "garbage");
  const std::string report = stats.ToString();
  EXPECT_NE(report.find("FieldCount=1"), std::string::npos) << report;
  EXPECT_NE(report.find("quarantined"), std::string::npos) << report;
}

TEST(LineCodecTest, QuarantineCapsTheSampleList) {
  std::string text;
  for (int i = 0; i < 20; ++i) text += "bad line " + std::to_string(i) + "\n";
  DecodeOptions options;
  options.policy = DecodePolicy::kQuarantine;
  options.max_bad_fraction = 1.0;
  options.max_samples = 3;
  IngestStats stats;
  ASSERT_TRUE(LineCodec::DecodeAll(text, options, &stats).ok());
  EXPECT_EQ(stats.lines_quarantined, 20u);
  ASSERT_EQ(stats.samples.size(), 3u);
  EXPECT_EQ(stats.samples[2].line_number, 3u);
}

TEST(LineCodecTest, QuarantineEnforcesTheBadFractionBudget) {
  const std::string good = LineCodec::Encode(MakeRecord());
  std::string text;
  for (int i = 0; i < 8; ++i) text += good + "\n";
  text += "garbage one\ngarbage two\n";  // 2 of 10 bad

  DecodeOptions options;
  options.policy = DecodePolicy::kQuarantine;
  options.max_bad_fraction = 0.25;
  IngestStats stats;
  auto ok = LineCodec::DecodeAll(text, options, &stats);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().size(), 8u);

  options.max_bad_fraction = 0.1;  // 20% bad > 10% budget
  auto over = LineCodec::DecodeAll(text, options, &stats);
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.status().message().find("exceeds budget"),
            std::string::npos);
  // Stats accumulate across calls (two decodes of the same text by now)
  // and are fully populated even on a rejected decode.
  EXPECT_EQ(stats.lines_total, 20u);
  EXPECT_EQ(stats.lines_quarantined, 4u);

  // A zero budget (the default) quarantines nothing silently.
  options.max_bad_fraction = 0.0;
  EXPECT_FALSE(LineCodec::DecodeAll(text, options, &stats).ok());
}

TEST(LineCodecTest, IngestStatsAccumulateAcrossDecodeAllCalls) {
  const std::string good = LineCodec::Encode(MakeRecord());
  const std::string dirty = good + "\nbroken line\n" + good + "\n";

  DecodeOptions options;
  options.policy = DecodePolicy::kQuarantine;
  options.max_bad_fraction = 0.5;
  options.max_samples = 3;
  IngestStats stats;
  ASSERT_TRUE(LineCodec::DecodeAll(dirty, options, &stats).ok());
  EXPECT_EQ(stats.lines_total, 3u);
  EXPECT_EQ(stats.lines_quarantined, 1u);
  ASSERT_EQ(stats.samples.size(), 1u);

  // A second decode into the same struct adds on top of the first —
  // a multi-file ingest reports one combined health summary.
  ASSERT_TRUE(LineCodec::DecodeAll(dirty, options, &stats).ok());
  EXPECT_EQ(stats.lines_total, 6u);
  EXPECT_EQ(stats.records_decoded, 4u);
  EXPECT_EQ(stats.lines_quarantined, 2u);
  EXPECT_EQ(stats.by_class[static_cast<size_t>(IngestErrorClass::kFieldCount)],
            2u);
  EXPECT_EQ(stats.samples.size(), 2u);

  // The budget is judged per call: a clean decode succeeds under a zero
  // budget even though the accumulated stats carry earlier quarantines.
  options.max_bad_fraction = 0.0;
  ASSERT_TRUE(LineCodec::DecodeAll(good + "\n", options, &stats).ok());
  EXPECT_EQ(stats.lines_total, 7u);
  EXPECT_EQ(stats.lines_quarantined, 2u);

  // Samples stop accumulating at the call's max_samples cap.
  options.max_bad_fraction = 0.5;
  ASSERT_TRUE(LineCodec::DecodeAll(dirty, options, &stats).ok());
  ASSERT_TRUE(LineCodec::DecodeAll(dirty, options, &stats).ok());
  EXPECT_EQ(stats.lines_quarantined, 4u);
  EXPECT_EQ(stats.samples.size(), 3u);
}

TEST(LineCodecTest, LenientTailQuarantinesUnterminatedFinalLine) {
  const std::string good = LineCodec::Encode(MakeRecord());
  // A writer died mid-append: the last line is cut off and has no
  // terminating newline.
  const std::string text = good + "\n" + good.substr(0, good.size() / 2);

  // The strict default fails fast on it ...
  ASSERT_FALSE(LineCodec::DecodeAll(text).ok());

  // ... while the lenient-tail option quarantines exactly that one
  // line, with its own error class, even under kFailFast.
  DecodeOptions options;
  options.lenient_truncated_tail = true;
  IngestStats stats;
  auto decoded = LineCodec::DecodeAll(text, options, &stats);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value().size(), 1u);
  EXPECT_EQ(stats.records_decoded, 1u);
  EXPECT_EQ(stats.lines_quarantined, 1u);
  EXPECT_EQ(
      stats.by_class[static_cast<size_t>(IngestErrorClass::kTruncatedLine)],
      1u);
  ASSERT_EQ(stats.samples.size(), 1u);
  EXPECT_EQ(stats.samples[0].error_class, IngestErrorClass::kTruncatedLine);
  EXPECT_NE(stats.ToString().find("TruncatedLine=1"), std::string::npos);
}

TEST(LineCodecTest, LenientTailDoesNotExcuseInteriorOrTerminatedDamage) {
  const std::string good = LineCodec::Encode(MakeRecord());
  DecodeOptions options;
  options.lenient_truncated_tail = true;
  // Interior damage still fails fast ...
  EXPECT_FALSE(LineCodec::DecodeAll("garbage\n" + good + "\n", options,
                                    /*stats=*/nullptr)
                   .ok());
  // ... and so does a malformed final line *with* its newline: a
  // terminated line was fully written, so it is corrupt, not cut off.
  EXPECT_FALSE(
      LineCodec::DecodeAll(good + "\ngarbage\n", options, nullptr).ok());
}

TEST(LineCodecTest, TruncatedTailNeverCountsAgainstTheBadBudget) {
  const std::string good = LineCodec::Encode(MakeRecord());
  const std::string text = good + "\n" + good.substr(0, good.size() / 2);
  DecodeOptions options;
  options.policy = DecodePolicy::kQuarantine;
  options.max_bad_fraction = 0.0;  // zero tolerance for interior damage
  options.lenient_truncated_tail = true;
  IngestStats stats;
  auto decoded = LineCodec::DecodeAll(text, options, &stats);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(stats.lines_quarantined, 1u);

  // The same zero budget still rejects interior damage in a file that
  // *also* has a truncated tail — leniency is surgical.
  IngestStats dirty_stats;
  auto rejected =
      LineCodec::DecodeAll("garbage\n" + text, options, &dirty_stats);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("exceeds budget"),
            std::string::npos)
      << rejected.status();
}

TEST(LineCodecTest, QuarantineOnCleanInputMatchesFailFast) {
  std::vector<LogRecord> records;
  for (int i = 0; i < 10; ++i) {
    LogRecord record = MakeRecord();
    record.client_ts += i * 777;
    record.message = "clean " + std::to_string(i);
    records.push_back(record);
  }
  const std::string text = LineCodec::EncodeAll(records);
  auto strict = LineCodec::DecodeAll(text);
  DecodeOptions options;
  options.policy = DecodePolicy::kQuarantine;
  IngestStats stats;
  auto lenient = LineCodec::DecodeAll(text, options, &stats);
  ASSERT_TRUE(strict.ok());
  ASSERT_TRUE(lenient.ok());
  EXPECT_TRUE(strict.value() == lenient.value());
  EXPECT_EQ(stats.lines_quarantined, 0u);
  EXPECT_EQ(stats.records_decoded, 10u);
}

}  // namespace
}  // namespace logmine
