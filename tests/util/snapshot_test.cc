#include "util/snapshot.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace logmine {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

TEST(Crc32Test, KnownVectors) {
  // The zlib/IEEE check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
}

// `Crc32` takes one of two paths by CPU; each must give the same value.
// The slice-by-16 table path runs everywhere, the carry-less-multiply
// fold only where the CPU has PCLMULQDQ and SSE4.1.
TEST(Crc32Test, TablePathMatchesTheKnownVectors) {
  EXPECT_EQ(internal::Crc32Table("123456789"), 0xCBF43926u);
  EXPECT_EQ(internal::Crc32Table(""), 0x00000000u);
}

TEST(Crc32Test, FoldedPathMatchesTheKnownVectors) {
  if (!internal::Crc32FoldSupported()) {
    GTEST_SKIP() << "CPU without PCLMULQDQ/SSE4.1";
  }
  EXPECT_EQ(internal::Crc32Fold("123456789"), 0xCBF43926u);
  EXPECT_EQ(internal::Crc32Fold(""), 0x00000000u);
}

std::string RandomBytes(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.Next());
  return bytes;
}

// Every length from 0 through 1024 at every offset from a 16-byte
// boundary: the fold's aligned head, its 64- and 16-byte steps and the
// table tail each start and stop at every position.
TEST(Crc32Test, FoldedPathMatchesTheTableAtEveryLengthAndOffset) {
  if (!internal::Crc32FoldSupported()) {
    GTEST_SKIP() << "CPU without PCLMULQDQ/SSE4.1";
  }
  alignas(16) std::array<char, 1024 + 16> buffer;
  const std::string random = RandomBytes(28, buffer.size());
  std::copy(random.begin(), random.end(), buffer.begin());
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 1024; ++length) {
      const std::string_view bytes(buffer.data() + offset, length);
      ASSERT_EQ(internal::Crc32Fold(bytes), internal::Crc32Table(bytes))
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST(Crc32Test, BothPathsAgreeOnALargeRandomBuffer) {
  const std::string bytes = RandomBytes(20261020, 5 << 20);
  const uint32_t table = internal::Crc32Table(bytes);
  EXPECT_EQ(Crc32(bytes), table);
  if (!internal::Crc32FoldSupported()) {
    GTEST_SKIP() << "CPU without PCLMULQDQ/SSE4.1";
  }
  EXPECT_EQ(internal::Crc32Fold(bytes), table);
}

TEST(SnapshotTest, RoundTripsEveryPrimitive) {
  SnapshotWriter w;
  w.BeginSection("prims");
  w.PutU32(42);
  w.PutU64(0xDEADBEEFCAFEF00DULL);
  w.PutI64(-12345678901234LL);
  w.PutDouble(3.25);
  w.PutBool(true);
  w.PutBool(false);
  w.PutString("hello snapshot");
  w.PutString("");
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  auto reader = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader.value().version(), kSnapshotVersion);
  auto cursor = reader.value().Section("prims");
  ASSERT_TRUE(cursor.ok());
  SectionCursor& c = cursor.value();
  EXPECT_EQ(c.ReadU32().value(), 42u);
  EXPECT_EQ(c.ReadU64().value(), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(c.ReadI64().value(), -12345678901234LL);
  EXPECT_EQ(c.ReadDouble().value(), 3.25);
  EXPECT_TRUE(c.ReadBool().value());
  EXPECT_FALSE(c.ReadBool().value());
  EXPECT_EQ(c.ReadString().value(), "hello snapshot");
  EXPECT_EQ(c.ReadString().value(), "");
  EXPECT_TRUE(c.ExpectEnd().ok());
}

TEST(SnapshotTest, MultipleSectionsAddressableByName) {
  SnapshotWriter w;
  w.BeginSection("first");
  w.PutU32(1);
  w.EndSection();
  w.BeginSection("second");
  w.PutU32(2);
  w.EndSection();
  w.BeginSection("empty");
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  auto reader = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_TRUE(reader.value().HasSection("first"));
  EXPECT_TRUE(reader.value().HasSection("empty"));
  EXPECT_FALSE(reader.value().HasSection("third"));
  EXPECT_EQ(reader.value().Section("second").value().ReadU32().value(), 2u);
  EXPECT_EQ(reader.value().Section("first").value().ReadU32().value(), 1u);
  EXPECT_EQ(reader.value().Section("empty").value().remaining(), 0u);
  EXPECT_EQ(reader.value().Section("third").status().code(),
            StatusCode::kNotFound);
}

TEST(SnapshotTest, TruncationAnywhereIsRejected) {
  SnapshotWriter w;
  w.BeginSection("data");
  for (int i = 0; i < 100; ++i) w.PutU64(static_cast<uint64_t>(i));
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  // Every strict prefix must fail to parse — no truncation point may
  // yield a valid snapshot.
  for (size_t len : {size_t{0}, size_t{7}, size_t{15}, bytes.size() / 2,
                     bytes.size() - 1}) {
    auto reader = SnapshotReader::Parse(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(reader.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(SnapshotTest, BitFlipAnywhereIsRejected) {
  SnapshotWriter w;
  w.BeginSection("data");
  w.PutString("payload payload payload");
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  for (size_t i = 0; i < bytes.size(); i += 3) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    auto reader = SnapshotReader::Parse(corrupt);
    EXPECT_FALSE(reader.ok()) << "flip at byte " << i << " parsed";
  }
}

TEST(SnapshotTest, VersionMismatchIsFailedPrecondition) {
  SnapshotWriter w(kSnapshotVersion + 1);
  w.BeginSection("data");
  w.PutU32(7);
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  auto reader = SnapshotReader::Parse(bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
  // The same bytes parse fine when the reader expects that version.
  EXPECT_TRUE(SnapshotReader::Parse(bytes, kSnapshotVersion + 1).ok());
}

TEST(SnapshotTest, CursorNeverReadsPastSectionEnd) {
  SnapshotWriter w;
  w.BeginSection("small");
  w.PutU32(9);
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  auto reader = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(reader.ok());
  SectionCursor c = reader.value().Section("small").value();
  EXPECT_TRUE(c.ReadU32().ok());
  EXPECT_EQ(c.ReadU64().status().code(), StatusCode::kParseError);
  EXPECT_EQ(c.ReadString().status().code(), StatusCode::kParseError);
}

TEST(SnapshotTest, StringLengthBeyondPayloadIsRejected) {
  SnapshotWriter w;
  w.BeginSection("s");
  w.PutU64(1000);  // a string length prefix with no bytes behind it
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  auto reader = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(reader.ok());
  SectionCursor c = reader.value().Section("s").value();
  EXPECT_EQ(c.ReadString().status().code(), StatusCode::kParseError);
}

TEST(SnapshotTest, SectionNameLengthNearUint32MaxIsRejected) {
  // A CRC-valid container whose one section claims a name of 2^32 - 8
  // bytes: in u32 arithmetic name_len + 8 wraps to 0 and passed the
  // bounds check, sending the payload-length read far past the buffer.
  std::string bytes;
  auto put_u32 = [&bytes](uint32_t v) {
    bytes.append(reinterpret_cast<const char*>(&v), 4);
  };
  put_u32(0x4E534D4C);  // "LMSN"
  put_u32(kSnapshotVersion);
  put_u32(0xFFFFFFF8u);
  bytes.append(16, 'x');
  put_u32(0x534E4150);  // "PANS"
  put_u32(Crc32(bytes));
  auto reader = SnapshotReader::Parse(bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
}

TEST(SnapshotTest, ExpectEndFlagsUndecodedBytes) {
  SnapshotWriter w;
  w.BeginSection("s");
  w.PutU32(1);
  w.PutU32(2);
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  auto reader = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(reader.ok());
  SectionCursor c = reader.value().Section("s").value();
  EXPECT_TRUE(c.ReadU32().ok());
  EXPECT_EQ(c.ExpectEnd().code(), StatusCode::kParseError);
}

TEST(SnapshotFileTest, WriteReadRoundTrip) {
  SnapshotWriter w;
  w.BeginSection("file");
  w.PutString("on disk");
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  const std::string path = TempPath("snapshot_roundtrip.snap");
  ASSERT_TRUE(WriteSnapshotFile(path, bytes).ok());
  // The tmp file is gone after the rename.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), bytes);
  auto reader = SnapshotReader::Parse(read.value());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().Section("file").value().ReadString().value(),
            "on disk");
  std::filesystem::remove(path);
}

TEST(SnapshotFileTest, MissingFileIsNotFound) {
  auto read = ReadFileToString(TempPath("does_not_exist.snap"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotFileTest, UnwritableDirectoryIsInternal) {
  const Status status =
      WriteSnapshotFile(TempPath("no/such/dir/x.snap"), "bytes");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace logmine
