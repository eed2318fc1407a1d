#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "log/codec.h"
#include "log/store.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace logmine {
namespace {

// The determinism contract of DecodeOptions::num_chunks: for ANY chunk
// count, records, stats (counts, per-class tallies, first-K samples with
// their global line numbers and byte offsets), budget judgement and
// fail-fast error are identical to the serial decode. These tests pin it
// property-style over hand-built and randomized corpora.

const std::vector<int> kChunkCounts = {1, 2, 7, 16};

std::string GoodLine(int i) {
  LogRecord record;
  record.client_ts = 1000 + i * 10;
  record.server_ts = record.client_ts + 3;
  record.source = "src" + std::to_string(i % 5);
  record.host = "h";
  record.user = "u";
  record.message = "message " + std::to_string(i);
  return LineCodec::Encode(record);
}

struct DecodeOutcome {
  bool ok = false;
  std::string error;
  std::string encoded_records;
  IngestStats stats;
};

DecodeOutcome DecodeWith(std::string_view text, DecodeOptions options,
                         int num_chunks) {
  options.num_chunks = num_chunks;
  DecodeOutcome outcome;
  auto result = LineCodec::DecodeAll(text, options, &outcome.stats);
  outcome.ok = result.ok();
  if (result.ok()) {
    outcome.encoded_records = LineCodec::EncodeAll(result.value().Records());
  } else {
    outcome.error = result.status().message();
  }
  return outcome;
}

void ExpectSameOutcome(const DecodeOutcome& serial,
                       const DecodeOutcome& chunked, int num_chunks) {
  SCOPED_TRACE("num_chunks=" + std::to_string(num_chunks));
  EXPECT_EQ(serial.ok, chunked.ok);
  EXPECT_EQ(serial.error, chunked.error);
  EXPECT_EQ(serial.encoded_records, chunked.encoded_records);
  EXPECT_EQ(serial.stats.lines_total, chunked.stats.lines_total);
  EXPECT_EQ(serial.stats.records_decoded, chunked.stats.records_decoded);
  EXPECT_EQ(serial.stats.lines_quarantined, chunked.stats.lines_quarantined);
  EXPECT_EQ(serial.stats.by_class, chunked.stats.by_class);
  ASSERT_EQ(serial.stats.samples.size(), chunked.stats.samples.size());
  for (size_t i = 0; i < serial.stats.samples.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(serial.stats.samples[i].line_number,
              chunked.stats.samples[i].line_number);
    EXPECT_EQ(serial.stats.samples[i].byte_offset,
              chunked.stats.samples[i].byte_offset);
    EXPECT_EQ(static_cast<int>(serial.stats.samples[i].error_class),
              static_cast<int>(chunked.stats.samples[i].error_class));
    EXPECT_EQ(serial.stats.samples[i].error, chunked.stats.samples[i].error);
    EXPECT_EQ(serial.stats.samples[i].text, chunked.stats.samples[i].text);
  }
}

void ExpectChunkCountInvariant(std::string_view text,
                               const DecodeOptions& options) {
  const DecodeOutcome serial = DecodeWith(text, options, 1);
  for (int num_chunks : kChunkCounts) {
    if (num_chunks == 1) continue;
    ExpectSameOutcome(serial, DecodeWith(text, options, num_chunks),
                      num_chunks);
  }
}

TEST(ParallelDecodeTest, CleanCorpusIsChunkCountInvariant) {
  std::string text;
  for (int i = 0; i < 100; ++i) text += GoodLine(i) + "\n";
  ExpectChunkCountInvariant(text, DecodeOptions{});

  DecodeOptions quarantine;
  quarantine.policy = DecodePolicy::kQuarantine;
  quarantine.max_bad_fraction = 0.2;
  ExpectChunkCountInvariant(text, quarantine);
}

TEST(ParallelDecodeTest, QuarantinedCorpusIsChunkCountInvariant) {
  // Bad lines sprayed through the file, including blank lines and a
  // run of consecutive offenders, under a budget that passes.
  std::string text;
  for (int i = 0; i < 120; ++i) {
    if (i % 11 == 0) {
      text += "definitely not a log line " + std::to_string(i) + "\n";
    } else if (i % 17 == 0) {
      text += "\n";  // blank — not a line at all for the tally
    } else {
      text += GoodLine(i) + "\n";
    }
  }
  DecodeOptions options;
  options.policy = DecodePolicy::kQuarantine;
  options.max_bad_fraction = 0.5;
  options.max_samples = 5;  // fewer samples than offenders: first-K only
  ExpectChunkCountInvariant(text, options);
}

TEST(ParallelDecodeTest, BudgetRejectionIsChunkCountInvariant) {
  std::string text;
  for (int i = 0; i < 60; ++i) {
    text += (i % 3 == 0) ? "garbage\n" : GoodLine(i) + "\n";
  }
  DecodeOptions options;
  options.policy = DecodePolicy::kQuarantine;
  options.max_bad_fraction = 0.1;  // 1/3 bad: must fail identically
  ExpectChunkCountInvariant(text, options);
}

TEST(ParallelDecodeTest, FailFastErrorIsChunkCountInvariant) {
  // The offending line sits mid-file; every chunking must report the
  // same global line number and byte offset.
  std::string text;
  for (int i = 0; i < 80; ++i) {
    text += (i == 47) ? "broken | line | here\n" : GoodLine(i) + "\n";
  }
  ExpectChunkCountInvariant(text, DecodeOptions{});
}

TEST(ParallelDecodeTest, TruncatedFinalLineIsChunkCountInvariant) {
  std::string text;
  for (int i = 0; i < 50; ++i) text += GoodLine(i) + "\n";
  text += GoodLine(50).substr(0, 9);  // cut mid-timestamp, no newline

  DecodeOptions options;
  options.lenient_truncated_tail = true;
  ExpectChunkCountInvariant(text, options);

  // And without the lenient tail the cut line fails identically too.
  ExpectChunkCountInvariant(text, DecodeOptions{});
}

TEST(ParallelDecodeTest, MoreChunksThanLinesIsFine) {
  std::string text = GoodLine(0) + "\n" + GoodLine(1) + "\n";
  ExpectChunkCountInvariant(text, DecodeOptions{});
  DecodeOptions options;
  options.num_chunks = 16;
  IngestStats stats;
  auto result = LineCodec::DecodeAll(text, options, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().size(), 2u);
  EXPECT_EQ(stats.records_decoded, 2u);
}

TEST(ParallelDecodeTest, EmptyAndBlankOnlyBuffers) {
  for (const std::string& text : {std::string(), std::string("\n\n\n"),
                                  std::string("   \n\t\n")}) {
    ExpectChunkCountInvariant(text, DecodeOptions{});
    DecodeOptions options;
    options.num_chunks = 7;
    auto result = LineCodec::DecodeAll(text, options, nullptr);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().empty());
  }
}

TEST(ParallelDecodeTest, RandomizedCorporaAreChunkCountInvariant) {
  Rng rng(424242);
  for (int round = 0; round < 15; ++round) {
    std::string text;
    const int lines = static_cast<int>(rng.UniformInt(0, 150));
    for (int i = 0; i < lines; ++i) {
      const int64_t roll = rng.UniformInt(0, 9);
      if (roll == 0) {
        text += "junk " + std::to_string(rng.UniformInt(0, 1000)) + "\n";
      } else if (roll == 1) {
        text += "\n";
      } else {
        text += GoodLine(static_cast<int>(rng.UniformInt(0, 500))) + "\n";
      }
    }
    // Half the rounds: cut the trailing newline (or a few final bytes).
    if (rng.Bernoulli(0.5) && !text.empty()) {
      text.resize(text.size() -
                  static_cast<size_t>(rng.UniformInt(
                      1, std::min<int64_t>(5, static_cast<int64_t>(
                                                  text.size())))));
    }
    DecodeOptions options;
    options.policy = DecodePolicy::kQuarantine;
    options.max_bad_fraction = 0.4;
    options.lenient_truncated_tail = rng.Bernoulli(0.5);
    options.max_samples = static_cast<size_t>(rng.UniformInt(0, 8));
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectChunkCountInvariant(text, options);
  }
}

// Store-level determinism: the decoded store — dictionaries in id order,
// per-record ids with kNoHost/kNoUser for empty fields, and the message
// arena — equals a serial LogStore::Append loop over the good lines, at
// every chunk count.
void ExpectSameStore(const LogStore& expected, const LogStore& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  ASSERT_EQ(expected.num_sources(), actual.num_sources());
  for (uint32_t id = 0; id < expected.num_sources(); ++id) {
    EXPECT_EQ(expected.source_name(id), actual.source_name(id)) << id;
  }
  ASSERT_EQ(expected.num_hosts(), actual.num_hosts());
  for (uint32_t id = 0; id < expected.num_hosts(); ++id) {
    EXPECT_EQ(expected.host_name(id), actual.host_name(id)) << id;
  }
  ASSERT_EQ(expected.num_users(), actual.num_users());
  for (uint32_t id = 0; id < expected.num_users(); ++id) {
    EXPECT_EQ(expected.user_name(id), actual.user_name(id)) << id;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(expected.client_ts(i), actual.client_ts(i));
    EXPECT_EQ(expected.server_ts(i), actual.server_ts(i));
    EXPECT_EQ(expected.severity(i), actual.severity(i));
    EXPECT_EQ(expected.source_id(i), actual.source_id(i));
    EXPECT_EQ(expected.host_id(i), actual.host_id(i));
    EXPECT_EQ(expected.user_id(i), actual.user_id(i));
    EXPECT_EQ(expected.message(i), actual.message(i));
  }
  // Everything at once, the message arena and its offsets included.
  EXPECT_TRUE(expected == actual);
}

TEST(ParallelDecodeTest, StoresMatchASerialAppendLoopAtEveryChunkCount) {
  // Sources, hosts and users that first appear late (in a later chunk
  // at every chunk count above 1), names that need unescaping, empty
  // host and user fields, and quarantined lines whose names must not
  // reach any dictionary.
  std::vector<LogRecord> good;
  std::string text;
  for (int i = 0; i < 240; ++i) {
    LogRecord record;
    record.client_ts = 5000 + (i * 37) % 1000;
    record.server_ts = record.client_ts + i % 4;
    record.severity = static_cast<Severity>(i % 4);
    record.source = i >= 200   ? "late|" + std::to_string(i % 3)
                    : i >= 120 ? "mid" + std::to_string(i % 2)
                               : "early" + std::to_string(i % 5);
    record.host = i % 6 == 0 ? "" : "host" + std::to_string((i * 7) % 11);
    record.user = i % 4 == 1 ? "" : "u\\" + std::to_string(i / 30);
    record.message = i % 9 == 0 ? "pipe | and\nnewline"
                                : "message " + std::to_string(i);
    if (i % 23 == 5) {
      LogRecord ghost = record;
      ghost.severity = Severity::kInfo;
      ghost.source = "ghost" + std::to_string(i);
      ghost.host = "ghost-host" + std::to_string(i);
      text += ReplaceAll(LineCodec::Encode(ghost), "|INFO|", "|LOUD|") +
              "\n";
      text += "not a log line\n";
    }
    good.push_back(record);
    text += LineCodec::Encode(record) + "\n";
  }
  LogStore expected;
  for (const LogRecord& record : good) {
    ASSERT_TRUE(expected.Append(record).ok());
  }
  ASSERT_EQ(expected.num_sources(), 10u);

  DecodeOptions options;
  options.policy = DecodePolicy::kQuarantine;
  options.max_bad_fraction = 0.2;
  for (int num_chunks : kChunkCounts) {
    SCOPED_TRACE("num_chunks=" + std::to_string(num_chunks));
    options.num_chunks = num_chunks;
    IngestStats stats;
    auto decoded = LineCodec::DecodeAll(text, options, &stats);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(stats.records_decoded, good.size());
    EXPECT_GT(stats.lines_quarantined, 0u);
    ExpectSameStore(expected, decoded.value());
  }
}

TEST(ParallelDecodeTest, AutoModeDecodesCorrectly) {
  // num_chunks = 0 picks chunking from the pool size; correctness must
  // not depend on what it picks. Make the buffer big enough to actually
  // split (the auto floor is ~64 KiB per chunk).
  std::string text;
  while (text.size() < 200 * 1024) {
    text += GoodLine(static_cast<int>(text.size() % 997)) + "\n";
  }
  const DecodeOutcome serial = DecodeWith(text, DecodeOptions{}, 1);
  const DecodeOutcome auto_mode = DecodeWith(text, DecodeOptions{}, 0);
  ExpectSameOutcome(serial, auto_mode, 0);
}

}  // namespace
}  // namespace logmine
