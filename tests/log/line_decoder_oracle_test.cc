// Differential test of LineCodec::Decode, and of the bulk
// LineCodec::DecodeAll, against the decoder they replaced
// (tests/log/reference_line_decoder.h). On every input the two must
// return the same record, or the same error class and message — except
// for the deliberate differences named below, where the new decoder is
// stricter about timestamps than sscanf was. It is never more lenient.

#include <array>
#include <iostream>
#include <map>
#include <regex>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "log/codec.h"
#include "log/reference_line_decoder.h"
#include "simulation/corruptor.h"
#include "simulation/hug_scenario.h"
#include "simulation/simulator.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace logmine {
namespace {

// The deliberate differences, each pinned by a test of its own below.
constexpr std::string_view kBlankInField = "blank inside a timestamp field";
constexpr std::string_view kPlusSign = "'+' sign on a timestamp field";
constexpr std::string_view kSignedLaterField =
    "'-' sign on a field after the year";
constexpr std::string_view kTrailingBytes = "bytes after the timestamp";

// Names the deliberate difference a timestamp field falls under, or ""
// when both parsers must agree on it.
std::string_view DeliberateDifference(std::string_view field) {
  const std::string text(field);
  if (text.find('+') != std::string::npos) return kPlusSign;
  // The one blank the grammar has sits between two digits, once.
  static const std::regex kStrayBlank(
      R"((^|[^0-9])\s|\s($|[^0-9])|[\t\n\v\f\r]|\s.*\s)");
  if (std::regex_search(text, kStrayBlank)) return kBlankInField;
  static const std::regex kLaterSign(R"([-:. ]-)");
  if (std::regex_search(text, kLaterSign)) return kSignedLaterField;
  // A full grammar prefix (date, optionally h:m:s and .ms) and more.
  static const std::regex kGrammarPrefix(
      R"(^-?[0-9]+-[0-9]+-[0-9]+( [0-9]+:[0-9]+:[0-9]+(\.[0-9]+)?)?)");
  std::smatch prefix;
  if (std::regex_search(text, prefix, kGrammarPrefix) &&
      static_cast<size_t>(prefix.length(0)) < text.size()) {
    return kTrailingBytes;
  }
  return "";
}

// The first of the two timestamp fields on which the parsers disagree,
// or "" when they agree on both. Only called on a line with 7 fields.
std::string DisagreeingTimestamp(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  for (size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      const char next = line[++i];
      current += next == 'n' ? '\n' : next;
    } else if (line[i] == '|') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += line[i];
    }
  }
  fields.push_back(std::move(current));
  for (size_t f = 0; f < 2 && f < fields.size(); ++f) {
    auto expected = reference::ParseTime(fields[f]);
    auto actual = ParseTime(fields[f]);
    if (expected.ok() != actual.ok() ||
        (expected.ok() && expected.value() != actual.value()) ||
        (!expected.ok() &&
         expected.status().message() != actual.status().message())) {
      return fields[f];
    }
  }
  return "";
}

// Runs both decoders on every line and tallies the deliberate
// differences met; any other disagreement fails the test.
class Differential {
 public:
  void Check(std::string_view line) {
    IngestErrorClass actual_class = IngestErrorClass::kFieldCount;
    auto actual = LineCodec::Decode(line, &actual_class);
    Compare(line, actual, actual_class);
  }

  // Checks one line's outcome from either path of the decoder: its
  // record, or its error class (`actual_class`) and message.
  void Compare(std::string_view line, const Result<LogRecord>& actual,
               IngestErrorClass actual_class) {
    ++lines_;
    IngestErrorClass expected_class = IngestErrorClass::kFieldCount;
    auto expected = reference::Decode(line, &expected_class);
    if (actual.ok()) {
      // Never more lenient: whatever the new decoder accepts, the old
      // one accepted as the very same record.
      ASSERT_TRUE(expected.ok()) << line;
      EXPECT_EQ(actual.value(), expected.value()) << line;
      return;
    }
    if (!expected.ok() && expected_class == actual_class &&
        expected.status().message() == actual.status().message()) {
      return;
    }
    // The only sanctioned disagreements are in the timestamp parser.
    ASSERT_EQ(actual_class, IngestErrorClass::kBadTimestamp) << line;
    const std::string field = DisagreeingTimestamp(line);
    const std::string_view name = DeliberateDifference(field);
    ASSERT_FALSE(name.empty())
        << "undeclared difference on timestamp '" << field << "' in line: "
        << line << "\n  reference: "
        << (expected.ok() ? "ok" : expected.status().message())
        << "\n  decoder:   " << actual.status().message();
    ++differences_[std::string(name)];
  }

  size_t lines() const { return lines_; }
  const std::map<std::string, size_t>& differences() const {
    return differences_;
  }

 private:
  size_t lines_ = 0;
  std::map<std::string, size_t> differences_;
};

std::string SimulatedCorpus() {
  auto scenario = sim::BuildHugScenario(sim::HugScenarioConfig{});
  EXPECT_TRUE(scenario.ok());
  sim::SimulationConfig config;
  config.num_days = 1;
  config.scale = 0.02;
  sim::Simulator simulator(scenario.value().topology,
                           scenario.value().directory, config);
  LogStore store;
  EXPECT_TRUE(simulator.Run(&store, nullptr).ok());
  return LineCodec::EncodeAll(store.Records());
}

std::vector<std::string_view> Lines(std::string_view text) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// The simulated corpus with half its lines damaged by one corruptor
// fault kind, seeded per kind.
std::string CorruptedCorpus(const std::string& clean, size_t kind) {
  sim::CorruptorConfig config;
  config.rate = 0.5;
  std::array<double*, sim::kNumCorruptionKinds> weights = {
      &config.truncate_weight,  &config.mangle_escape_weight,
      &config.garbage_weight,   &config.reorder_weight,
      &config.duplicate_weight, &config.clock_jump_weight,
      &config.blank_context_weight};
  for (size_t w = 0; w < weights.size(); ++w) *weights[w] = w == kind ? 1 : 0;
  Rng rng(1000 + kind);
  sim::CorruptionReport report;
  std::string corrupted = sim::CorruptCorpusText(clean, config, &rng, &report);
  EXPECT_GT(report.by_kind[kind], 100u);
  return corrupted;
}

TEST(LineDecoderOracleTest, AgreesOnEveryCorruptorFaultKind) {
  const std::string clean = SimulatedCorpus();
  ASSERT_GT(clean.size(), 100'000u);
  for (size_t k = 0; k < sim::kNumCorruptionKinds; ++k) {
    const auto kind = static_cast<sim::CorruptionKind>(k);
    SCOPED_TRACE(std::string(sim::CorruptionKindName(kind)));
    const std::string corrupted = CorruptedCorpus(clean, k);
    Differential differential;
    for (std::string_view line : Lines(corrupted)) {
      differential.Check(line);
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (const auto& [name, count] : differential.differences()) {
      std::cout << "  " << sim::CorruptionKindName(kind) << ": " << count
                << " of " << differential.lines() << " lines differ by "
                << name << "\n";
    }
  }
}

TEST(LineDecoderOracleTest, AgreesOnRandomBytes) {
  // The random-bytes fuzz seed of LineCodecTest, plus the same bytes
  // spliced into each field of a valid line, so that timestamp, severity
  // and source parsing see garbage too and not only the field splitter.
  const std::string good =
      "2005-12-06 08:30:01.250|2005-12-06 08:30:02.484|WARN|DPIFormidoc|"
      "ws-042|u0007|Invoke externalService";
  Rng rng(777);        // the byte sequence of the codec fuzz test
  Rng splice_rng(778);  // where to splice, drawn apart to keep it so
  Differential differential;
  for (int trial = 0; trial < 500; ++trial) {
    std::string bytes;
    const int len = static_cast<int>(rng.UniformInt(0, 120));
    for (int i = 0; i < len; ++i) {
      bytes += static_cast<char>(rng.UniformInt(1, 255));
    }
    differential.Check(bytes);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    const auto at = static_cast<size_t>(
        splice_rng.UniformInt(0, static_cast<int64_t>(good.size()) - 1));
    const auto span = static_cast<size_t>(splice_rng.UniformInt(1, 6));
    std::string spliced = good;
    spliced.replace(at, span, bytes.substr(0, span));
    differential.Check(spliced);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  EXPECT_EQ(differential.lines(), 1000u);
}

TEST(LineDecoderOracleTest, AgreesOnThePinnedTimestampForms) {
  const std::string tail = "|INFO|src|host|user|message";
  Differential differential;
  for (const std::string ts :
       {"2005-12-06 08:30:01.250", "2005-12-06", "2005-12-06 08:00:05",
        "2005-12-06 08:00:01.5", "-001-03-01 00:00:00.000",
        "2005-13-06", "2005-00-06", "2005-12-00", "2005-12-32",
        "2005-12-06 25:00:00", "2005-12-06 08:60:00", "2005-12-06 08:00:60",
        "2005-12-06 08:00:05.1000", "2005-12-06 08", "2005-12-06 08:00",
        "not a time", "2005-0000000000012-06"}) {
    differential.Check(ts + "|" + ts + tail);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << ts;
  }
  EXPECT_TRUE(differential.differences().empty());
  auto five_ms = LineCodec::Decode("2005-12-06 08:00:01.5|2005-12-06" + tail);
  ASSERT_TRUE(five_ms.ok());
  EXPECT_EQ(five_ms.value().client_ts % 1000, 5);
}

// Decodes `text` in bulk under the quarantine policy with every
// quarantined line sampled, and checks each non-blank line's outcome —
// the next record in the store, or its sample's class and message —
// against the reference, as `Differential` does for single lines. The
// bulk decode carries state from line to line (each timestamp column's
// last minute), which the single-line checks never reach.
void CheckBulk(std::string_view text, int num_chunks,
               Differential* differential) {
  SCOPED_TRACE("num_chunks=" + std::to_string(num_chunks));
  const std::vector<std::string_view> lines = Lines(text);
  DecodeOptions options;
  options.policy = DecodePolicy::kQuarantine;
  options.max_bad_fraction = 1.0;
  options.max_samples = lines.size();
  options.num_chunks = num_chunks;
  IngestStats stats;
  auto store = LineCodec::DecodeAll(text, options, &stats);
  ASSERT_TRUE(store.ok()) << store.status().message();
  const std::vector<LogRecord> records = store.value().Records();
  ASSERT_EQ(stats.samples.size(), stats.lines_quarantined);
  size_t next_record = 0;
  size_t next_sample = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (Trim(line).empty()) continue;
    if (next_sample < stats.samples.size() &&
        stats.samples[next_sample].line_number == i + 1) {
      const QuarantinedLine& sample = stats.samples[next_sample++];
      ASSERT_EQ(sample.text, line);
      differential->Compare(line, Status::ParseError(sample.error),
                            sample.error_class);
    } else {
      ASSERT_LT(next_record, records.size()) << line;
      differential->Compare(line, records[next_record++],
                            IngestErrorClass::kFieldCount);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(next_record, records.size());
  EXPECT_EQ(next_sample, stats.samples.size());
  EXPECT_EQ(next_record + next_sample, stats.lines_total);
}

const std::vector<int> kBulkChunkCounts = {1, 3, 7};

TEST(LineDecoderOracleTest, BulkDecodeAgreesOnEveryCorruptorFaultKind) {
  const std::string clean = SimulatedCorpus();
  ASSERT_GT(clean.size(), 100'000u);
  for (size_t k = 0; k < sim::kNumCorruptionKinds; ++k) {
    SCOPED_TRACE(std::string(
        sim::CorruptionKindName(static_cast<sim::CorruptionKind>(k))));
    const std::string corrupted = CorruptedCorpus(clean, k);
    for (int num_chunks : kBulkChunkCounts) {
      Differential differential;
      CheckBulk(corrupted, num_chunks, &differential);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
  }
}

TEST(LineDecoderOracleTest, BulkDecodeAgreesAfterAPrimedMinute) {
  // Each stamp follows a valid line of the same minute, so a decoder
  // that reuses the last minute reads it against that minute's prefix:
  // first in the client column, then in the server column.
  const std::string valid = "2005-12-06 08:30:01.250";
  const std::string tail = "|INFO|src|host|user|message";
  std::string text;
  for (const std::string stamp :
       {"2005-12-06 08:30:59.999", "2005-12-06 08:30:60.000",
        "2005-12-06 08:30:99.000", "2005-12-06 08:30:5x.000",
        "2005-12-06 08:30:-1.000", "2005-12-06 08:30:01.2a0",
        "2005-12-06 08:30:01:250", "2005-12-06 08:30:01.25",
        "2005-12-06 08:30:01.2500", "2005-12-06 08:30:01.250x",
        "2005-12-06 08:30:1.2500", "-005-12-06 08:30:01.250",
        "2005-02-31 08:30:01.250", "2005-02-31 08:30:02.000",
        "2005-12-06 08:31:00.000", "2005-12-06 08:30:00.000"}) {
    text += valid + "|" + valid + tail + "\n";
    text += stamp + "|" + valid + tail + "\n";
    text += valid + "|" + valid + tail + "\n";
    text += valid + "|" + stamp + tail + "\n";
    text += stamp + "|" + stamp + tail + "\n";
  }
  for (int num_chunks : kBulkChunkCounts) {
    Differential differential;
    CheckBulk(text, num_chunks, &differential);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_EQ(differential.lines(), 80u);
    // Only the stamps with trailing bytes and with second -1, where
    // sscanf differed.
    std::vector<std::string> names;
    for (const auto& [name, count] : differential.differences()) {
      names.push_back(name);
    }
    EXPECT_EQ(names, (std::vector<std::string>{std::string(kSignedLaterField),
                                               std::string(kTrailingBytes)}));
  }
}

// --- The deliberate differences, one pinned example each. ---

// Checks that the reference accepted `ts` (or rejected it with
// `reference_error`) while the decoder rejects it with `error`.
void ExpectDeliberate(std::string_view name, const std::string& ts,
                      std::string_view error,
                      std::string_view reference_error = "") {
  EXPECT_EQ(DeliberateDifference(ts), name) << ts;
  auto expected = reference::ParseTime(ts);
  if (reference_error.empty()) {
    EXPECT_TRUE(expected.ok()) << ts;
  } else {
    ASSERT_FALSE(expected.ok()) << ts;
    EXPECT_EQ(expected.status().message(),
              std::string(reference_error) + ": " + ts);
  }
  auto actual = ParseTime(ts);
  ASSERT_FALSE(actual.ok()) << ts;
  EXPECT_EQ(actual.status().message(), std::string(error) + ": " + ts);
}

TEST(LineDecoderOracleTest, DeliberateBlankInsideAFieldIsRejected) {
  // sscanf's %d skips leading white space, and its ' ' matches any run
  // of it, none included.
  ExpectDeliberate(kBlankInField, " 2005-12-06", "unrecognized timestamp");
  ExpectDeliberate(kBlankInField, "2005- 12-06", "unrecognized timestamp");
  ExpectDeliberate(kBlankInField, "2005-12-06  08:00:05",
                   "unrecognized timestamp");
  ExpectDeliberate(kBlankInField, "2005-12-06\t08:00:05",
                   "unrecognized timestamp");
}

TEST(LineDecoderOracleTest, DeliberatePlusSignIsRejected) {
  ExpectDeliberate(kPlusSign, "+2005-12-06", "unrecognized timestamp");
  ExpectDeliberate(kPlusSign, "2005-12-06 08:00:+05",
                   "unrecognized timestamp");
}

TEST(LineDecoderOracleTest, DeliberateSignOnALaterFieldIsUnrecognized) {
  // Both reject it; sscanf read a negative month, the grammar has no
  // sign there at all.
  ExpectDeliberate(kSignedLaterField, "2005--12-06", "unrecognized timestamp",
                   "timestamp field out of range");
}

TEST(LineDecoderOracleTest, DeliberateTrailingBytesAreRejected) {
  // sscanf stops at the first byte its format does not match and
  // reports success if it had three, six or seven fields by then.
  ExpectDeliberate(kTrailingBytes, "2005-12-06 08:00:05.123xyz",
                   "unrecognized timestamp");
  ExpectDeliberate(kTrailingBytes, "2005-12-06xyz", "unrecognized timestamp");
  ExpectDeliberate(kTrailingBytes, "2005-12-06 08:00:05.",
                   "unrecognized timestamp");
}

TEST(LineDecoderOracleTest, HostileYearsAreOutOfRangeInBoth) {
  // The old reader overflowed here (signed-overflow UB); the reference
  // adopts the bound, so the two agree.
  Differential differential;
  differential.Check(
      "-2147483648-01-01 00:00:00.000|2005-12-06|INFO|src|||message");
  differential.Check(
      "999999999-06-01 00:00:00.000|2005-12-06|INFO|src|||message");
  EXPECT_TRUE(differential.differences().empty());
}

}  // namespace
}  // namespace logmine
