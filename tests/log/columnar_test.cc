#include "log/columnar.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "log/codec.h"
#include "log/corpus_io.h"
#include "util/rng.h"

namespace logmine {
namespace {

LogRecord Rec(TimeMs ts, std::string source, std::string message,
              std::string host = "h1", std::string user = "u1") {
  LogRecord record;
  record.client_ts = ts;
  record.server_ts = ts + 7;
  record.severity = Severity::kWarning;
  record.source = std::move(source);
  record.host = std::move(host);
  record.user = std::move(user);
  record.message = std::move(message);
  return record;
}

// Exact record-for-record equality through the text codec: two stores
// are equal iff they encode to the same text.
void ExpectStoresEqual(const LogStore& a, const LogStore& b) {
  ASSERT_EQ(a.size(), b.size());
  std::vector<LogRecord> a_records, b_records;
  for (size_t i = 0; i < a.size(); ++i) {
    a_records.push_back(a.GetRecord(i));
    b_records.push_back(b.GetRecord(i));
  }
  EXPECT_EQ(LineCodec::EncodeAll(a_records), LineCodec::EncodeAll(b_records));
}

TEST(ColumnarTest, RoundTripsRecordsDictionariesAndSentinels) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(100, "A", "first")).ok());
  ASSERT_TRUE(store.Append(Rec(250, "B", "pipe | and \\ newline \n", "h2",
                               ""))  // no user
                  .ok());
  ASSERT_TRUE(store.Append(Rec(90, "A", "", "", "")).ok());  // out of order
  const std::string bytes = EncodeColumnar(store);
  ASSERT_TRUE(LooksColumnar(bytes));

  auto loaded = DecodeColumnar(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectStoresEqual(store, loaded.value());
  // Dictionary ids survive verbatim, not merely the names.
  EXPECT_EQ(loaded.value().source_id(0), store.source_id(0));
  EXPECT_EQ(loaded.value().host_id(2), LogStore::kNoHost);
  EXPECT_EQ(loaded.value().user_id(1), LogStore::kNoUser);
}

TEST(ColumnarTest, TextAndColumnarConvertLosslesslyBothWays) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(1000, "svc-a", "alpha")).ok());
  ASSERT_TRUE(store.Append(Rec(2000, "svc-b", "beta")).ok());
  const std::string text = [&] {
    std::vector<LogRecord> records;
    for (size_t i = 0; i < store.size(); ++i)
      records.push_back(store.GetRecord(i));
    return LineCodec::EncodeAll(records);
  }();

  // text -> store -> columnar -> store -> text
  auto from_text = LineCodec::DecodeAll(text);
  ASSERT_TRUE(from_text.ok());
  const LogStore text_store = std::move(from_text).value();
  auto from_columnar = DecodeColumnar(EncodeColumnar(text_store));
  ASSERT_TRUE(from_columnar.ok()) << from_columnar.status();
  std::vector<LogRecord> back;
  for (size_t i = 0; i < from_columnar.value().size(); ++i) {
    back.push_back(from_columnar.value().GetRecord(i));
  }
  EXPECT_EQ(LineCodec::EncodeAll(back), text);
}

TEST(ColumnarTest, FuzzRoundTripRandomCorpora) {
  Rng rng(20260808);
  for (int round = 0; round < 20; ++round) {
    LogStore store;
    const int n = static_cast<int>(rng.UniformInt(0, 200));
    TimeMs ts = rng.UniformInt(0, 1'000'000);
    for (int i = 0; i < n; ++i) {
      // Deliberately adversarial values: negative deltas, empty and
      // escape-heavy strings, absent context, every severity.
      ts += rng.UniformInt(-5000, 5000);
      LogRecord record;
      record.client_ts = ts;
      record.server_ts = ts + rng.UniformInt(-100, 100);
      record.severity = static_cast<Severity>(rng.UniformInt(0, 3));
      record.source = "src" + std::to_string(rng.UniformInt(0, 5));
      if (rng.Bernoulli(0.5)) {
        record.host = "host" + std::to_string(rng.UniformInt(0, 3));
      }
      if (rng.Bernoulli(0.5)) {
        record.user = "user" + std::to_string(rng.UniformInt(0, 3));
      }
      std::string message;
      const int len = static_cast<int>(rng.UniformInt(0, 40));
      for (int c = 0; c < len; ++c) {
        message += static_cast<char>(rng.UniformInt(1, 126));
      }
      record.message = message;
      ASSERT_TRUE(store.Append(record).ok());
    }
    auto loaded = DecodeColumnar(EncodeColumnar(store));
    ASSERT_TRUE(loaded.ok()) << "round " << round << ": " << loaded.status();
    ExpectStoresEqual(store, loaded.value());
  }
}

// Large enough that the 8-byte columns and the message arena span
// whole 2 MiB pages, so the decode's huge-page advice takes effect on
// them; the decoded store must still equal the encoded one.
TEST(ColumnarTest, RoundTripOfAStoreSpanningHugePages) {
  Rng rng(20261020);
  LogStore store;
  TimeMs ts = 1'000'000;
  for (int i = 0; i < 300'000; ++i) {
    ts += rng.UniformInt(-20, 200);
    LogRecord record;
    record.client_ts = ts;
    record.server_ts = ts + rng.UniformInt(-50, 50);
    record.severity = static_cast<Severity>(rng.UniformInt(0, 3));
    record.source = "src" + std::to_string(rng.UniformInt(0, 40));
    if (rng.Bernoulli(0.7)) {
      record.host = "host" + std::to_string(rng.UniformInt(0, 30));
    }
    if (rng.Bernoulli(0.5)) {
      record.user = "user" + std::to_string(rng.UniformInt(0, 200));
    }
    record.message = "event " + std::to_string(rng.Next());
    ASSERT_TRUE(store.Append(record).ok());
  }
  auto loaded = DecodeColumnar(EncodeColumnar(store));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded.value() == store);
}

// FNV-1a 64 of `bytes`, as 16 hex digits.
std::string Fnv1aHex(std::string_view bytes) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

TEST(ColumnarTest, EncodingOfAnUnindexedStoreIsPinned) {
  // The encoder must write the same bytes for the same store however it
  // assembles them. The digests were recorded with the encoder that
  // re-concatenated the message text and grew its buffer as it went.
  LogStore empty;
  const std::string empty_bytes = EncodeColumnar(empty);
  EXPECT_EQ(empty_bytes.size(), size_t{156});
  EXPECT_EQ(Fnv1aHex(empty_bytes), "be1dc03baa0a4559");

  // Out-of-order timestamps with small and multi-byte deltas, negative
  // server skew, absent hosts and users, empty and long messages.
  Rng rng(424242);
  LogStore store;
  TimeMs ts = 1'700'000'000'000;
  for (int i = 0; i < 3000; ++i) {
    ts += rng.Bernoulli(0.05) ? rng.UniformInt(-90'000'000, 90'000'000)
                              : rng.UniformInt(-2000, 5000);
    LogRecord record;
    record.client_ts = ts;
    record.server_ts = ts + rng.UniformInt(-300, 3000);
    record.severity = static_cast<Severity>(rng.UniformInt(0, 3));
    record.source = "src" + std::to_string(rng.UniformInt(0, 40));
    if (rng.Bernoulli(0.6)) {
      record.host = "host" + std::to_string(rng.UniformInt(0, 200));
    }
    if (rng.Bernoulli(0.4)) {
      record.user = "user" + std::to_string(rng.UniformInt(0, 500));
    }
    const int len = static_cast<int>(rng.UniformInt(0, 300));
    for (int c = 0; c < len; ++c) {
      record.message += static_cast<char>(rng.UniformInt(32, 126));
    }
    ASSERT_TRUE(store.Append(record).ok());
  }
  ASSERT_FALSE(store.index_built());
  const std::string bytes = EncodeColumnar(store);
  EXPECT_EQ(bytes.size(), size_t{493965});
  EXPECT_EQ(Fnv1aHex(bytes), "d69afb76e7ddc09d");
  auto loaded = DecodeColumnar(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded.value() == store);
}

TEST(ColumnarTest, QuarantinedCorpusSurvivesTheColumnarHop) {
  // A dirty text corpus ingested leniently, then rewritten columnar:
  // the *surviving* records round-trip; the quarantined line is gone in
  // both representations identically.
  LogStore clean;
  ASSERT_TRUE(clean.Append(Rec(100, "A", "good one")).ok());
  ASSERT_TRUE(clean.Append(Rec(200, "B", "good two")).ok());
  std::string text = LineCodec::Encode(clean.GetRecord(0)) + "\n" +
                     "garbage line\n" +
                     LineCodec::Encode(clean.GetRecord(1)) + "\n";
  DecodeOptions options;
  options.policy = DecodePolicy::kQuarantine;
  options.max_bad_fraction = 0.5;
  IngestStats stats;
  auto decoded = LineCodec::DecodeAll(text, options, &stats);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(stats.lines_quarantined, 1u);
  const LogStore survivors = std::move(decoded).value();
  auto loaded = DecodeColumnar(EncodeColumnar(survivors));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectStoresEqual(survivors, loaded.value());
}

TEST(ColumnarTest, SkippingMessagesLoadsEverythingElse) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(100, "A", "a long message body")).ok());
  ASSERT_TRUE(store.Append(Rec(200, "B", "another")).ok());
  ColumnarReadOptions options;
  options.load_messages = false;
  auto loaded = DecodeColumnar(EncodeColumnar(store), options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value().message(0), "");
  EXPECT_EQ(loaded.value().message(1), "");
  EXPECT_EQ(loaded.value().client_ts(1), store.client_ts(1));
  EXPECT_EQ(loaded.value().source_name(loaded.value().source_id(0)), "A");
  EXPECT_EQ(loaded.value().host_id(0), store.host_id(0));
}

TEST(ColumnarTest, BitRotAnywhereIsAParseError) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(100, "A", "payload")).ok());
  const std::string clean = EncodeColumnar(store);
  // Flip one byte at a spread of positions; every single one must be a
  // detected failure, never silently wrong records.
  for (size_t at = 0; at < clean.size(); at += 7) {
    std::string dirty = clean;
    dirty[at] = static_cast<char>(dirty[at] ^ 0x20);
    auto loaded = DecodeColumnar(dirty);
    EXPECT_FALSE(loaded.ok()) << "byte " << at << " flip went undetected";
  }
}

TEST(ColumnarTest, TruncationIsAParseError) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(100, "A", "payload")).ok());
  const std::string clean = EncodeColumnar(store);
  for (size_t keep : {clean.size() - 1, clean.size() / 2, size_t{3}}) {
    auto loaded = DecodeColumnar(clean.substr(0, keep));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
}

TEST(ColumnarTest, FileRoundTripAndCorpusAutodetection) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "logmine_columnar_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "corpus.lmc").string();

  LogStore store;
  ASSERT_TRUE(store.Append(Rec(300, "B", "later")).ok());
  ASSERT_TRUE(store.Append(Rec(100, "A", "earlier")).ok());
  ASSERT_TRUE(WriteColumnarFile(path, store).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  auto direct = ReadColumnarFile(path);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ExpectStoresEqual(store, direct.value());

  // The generic corpus reader autodetects the binary format by magic
  // bytes and returns an indexed store, like any text corpus: in time
  // order, with the file's dictionary ids.
  auto detected = ReadCorpusFile(path);
  ASSERT_TRUE(detected.ok()) << detected.status();
  EXPECT_TRUE(detected.value().index_built());
  EXPECT_EQ(detected.value().size(), 2u);
  EXPECT_EQ(detected.value().GetRecord(0), store.GetRecord(1));
  EXPECT_EQ(detected.value().GetRecord(1), store.GetRecord(0));
  EXPECT_EQ(detected.value().source_id(0), store.source_id(1));

  // An indexed store writes its records in time order, so its file reads
  // back equal to it.
  ASSERT_TRUE(WriteColumnarFile(path, detected.value()).ok());
  auto reread = ReadColumnarFile(path);
  ASSERT_TRUE(reread.ok()) << reread.status();
  EXPECT_TRUE(reread.value() == detected.value());

  std::filesystem::remove_all(dir);
}

TEST(ColumnarTest, TextCorpusIsNotMistakenForColumnar) {
  EXPECT_FALSE(LooksColumnar("2006-01-02 03:04:05.678|..."));
  EXPECT_FALSE(LooksColumnar(""));
  EXPECT_FALSE(LooksColumnar("LMS"));
  EXPECT_TRUE(LooksColumnar(std::string("LMSN") + "rest"));
}

TEST(ColumnarTest, EmptyStoreRoundTrips) {
  LogStore store;
  auto loaded = DecodeColumnar(EncodeColumnar(store));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded.value().empty());
  EXPECT_EQ(loaded.value().num_sources(), 0u);
}

// A CRC-valid columnar snapshot with the given header counts and empty
// columns: the shape of a hostile file that only its lengths betray.
std::string HandBuiltColumnar(uint64_t num_records, uint32_t num_sources,
                              uint32_t num_hosts, uint32_t num_users) {
  SnapshotWriter w;
  w.BeginSection("cmeta");
  w.PutU32(kColumnarVersion);
  w.PutU64(num_records);
  w.PutU32(num_sources);
  w.PutU32(num_hosts);
  w.PutU32(num_users);
  w.EndSection();
  for (const char* column : {"ctime", "cids"}) {
    w.BeginSection(column);
    w.PutString("");
    w.EndSection();
  }
  w.BeginSection("cdict");
  w.EndSection();
  w.BeginSection("ctext");
  w.PutString("");
  w.PutString("");
  w.EndSection();
  return std::move(w).Finish();
}

TEST(ColumnarTest, HostileRecordCountIsAParseError) {
  const std::string empty = HandBuiltColumnar(0, 0, 0, 0);
  auto loaded = DecodeColumnar(empty);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded.value().empty());
  // Sized from the header alone, 2^40 records would ask for terabytes.
  for (uint64_t n : {uint64_t{1}, uint64_t{1} << 40, UINT64_MAX}) {
    const std::string hostile = HandBuiltColumnar(n, 0, 0, 0);
    auto decoded = DecodeColumnar(hostile);
    ASSERT_FALSE(decoded.ok()) << n;
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError) << n;
  }
}

TEST(ColumnarTest, HostileDictionaryCountIsAParseError) {
  for (int which = 0; which < 3; ++which) {
    const std::string hostile =
        HandBuiltColumnar(0, which == 0 ? UINT32_MAX : 0,
                          which == 1 ? UINT32_MAX : 0,
                          which == 2 ? UINT32_MAX : 0);
    auto decoded = DecodeColumnar(hostile);
    ASSERT_FALSE(decoded.ok()) << which;
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError) << which;
  }
}

}  // namespace
}  // namespace logmine
