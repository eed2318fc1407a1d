#include "util/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#if defined(__x86_64__)
#include <immintrin.h>
#define LOGMINE_CRC_FOLD 1
#endif

#include "obs/obs.h"

namespace logmine {
namespace {

constexpr uint32_t kHeaderMagic = 0x4E534D4C;  // "LMSN" little-endian
constexpr uint32_t kFooterMagic = 0x534E4150;  // "PANS" little-endian

// Slice-by-16 CRC-32: sixteen derived tables let the hot loop fold
// sixteen input bytes per iteration instead of one. Same polynomial,
// identical output to the classic byte-at-a-time form — only the speed
// changes. It is the fallback for CPUs without carry-less multiply, and
// the head and tail around the folded bulk.
std::array<std::array<uint32_t, 256>, 16> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 16> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables[0][i];
    for (int t = 1; t < 16; ++t) {
      c = tables[0][c & 0xFF] ^ (c >> 8);
      tables[t][i] = c;
    }
  }
  return tables;
}

// Advances the running (pre-inverted) CRC `c` over `n` bytes at `p`.
uint32_t CrcTableUpdate(uint32_t c, const char* p, size_t n) {
  static const std::array<std::array<uint32_t, 256>, 16> tables =
      MakeCrcTables();
  while (std::endian::native == std::endian::little && n >= 16) {
    uint64_t lo, hi;
    std::memcpy(&lo, p, 8);
    std::memcpy(&hi, p + 8, 8);
    lo ^= c;  // little-endian: the CRC folds into the low four bytes
    c = tables[15][lo & 0xFF] ^ tables[14][(lo >> 8) & 0xFF] ^
        tables[13][(lo >> 16) & 0xFF] ^ tables[12][(lo >> 24) & 0xFF] ^
        tables[11][(lo >> 32) & 0xFF] ^ tables[10][(lo >> 40) & 0xFF] ^
        tables[9][(lo >> 48) & 0xFF] ^ tables[8][(lo >> 56) & 0xFF] ^
        tables[7][hi & 0xFF] ^ tables[6][(hi >> 8) & 0xFF] ^
        tables[5][(hi >> 16) & 0xFF] ^ tables[4][(hi >> 24) & 0xFF] ^
        tables[3][(hi >> 32) & 0xFF] ^ tables[2][(hi >> 40) & 0xFF] ^
        tables[1][(hi >> 48) & 0xFF] ^ tables[0][(hi >> 56) & 0xFF];
    p += 16;
    n -= 16;
  }
  for (; n > 0; ++p, --n) {
    c = tables[0][(c ^ static_cast<unsigned char>(*p)) & 0xFF] ^ (c >> 8);
  }
  return c;
}

#ifdef LOGMINE_CRC_FOLD
// One fold step: carries the 128 bits of `x` forward by the distance
// that `k` encodes (k1:k2 for 64 bytes, k3:k4 for 16) and adds the
// `data` found there.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i x,
                                                             __m128i k,
                                                             __m128i data) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       data);
}

// Carry-less-multiply CRC-32 (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), with
// the constants of Linux's crc32-pclmul for the reflected polynomial
// 0xEDB88320. Advances the running CRC `c` over `n` bytes at `p`;
// n >= 64 and a multiple of 16. Four 16-byte lanes fold 64 bytes a
// step, are reduced to one lane, which takes any 16-byte remainder;
// the 128 bits left are then folded to 64 and Barrett-reduced to 32.
__attribute__((target("pclmul,sse4.1"))) uint32_t CrcFoldUpdate(
    uint32_t c, const char* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  const auto load = [](const char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, k1k2, load(p));
    x2 = Fold(x2, k1k2, load(p + 16));
    x3 = Fold(x3, k1k2, load(p + 32));
    x4 = Fold(x4, k1k2, load(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold(x1, k3k4, load(p));

  // 128 -> 64 bits, appending 32 zero bits to the message.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(k3k4, x1, 0x01));
  // 64 -> 32 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5,
                                          0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}
#endif

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

namespace internal {

uint32_t Crc32Table(std::string_view bytes) {
  return CrcTableUpdate(0xFFFFFFFFu, bytes.data(), bytes.size()) ^
         0xFFFFFFFFu;
}

bool Crc32FoldSupported() {
#ifdef LOGMINE_CRC_FOLD
  __builtin_cpu_init();  // in case this runs before libgcc's constructor
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

uint32_t Crc32Fold(std::string_view bytes) {
  uint32_t c = 0xFFFFFFFFu;
  const char* p = bytes.data();
  size_t n = bytes.size();
#ifdef LOGMINE_CRC_FOLD
  // The table takes the bytes up to a 16-byte boundary, the fold the
  // whole 16-byte blocks from there, the table again the rest.
  const size_t head = -reinterpret_cast<uintptr_t>(p) & 15;
  if (n >= head + 64) {
    c = CrcTableUpdate(c, p, head);
    const size_t bulk = (n - head) & ~size_t{15};
    c = CrcFoldUpdate(c, p + head, bulk);
    p += head + bulk;
    n -= head + bulk;
  }
#endif
  return CrcTableUpdate(c, p, n) ^ 0xFFFFFFFFu;
}

}  // namespace internal

uint32_t Crc32(std::string_view bytes) {
  static const bool fold = internal::Crc32FoldSupported();
  return fold ? internal::Crc32Fold(bytes) : internal::Crc32Table(bytes);
}

SnapshotWriter::SnapshotWriter(uint32_t version) {
  AppendU32(&out_, kHeaderMagic);
  AppendU32(&out_, version);
}

void SnapshotWriter::BeginSection(std::string_view name) {
  assert(!in_section_ && "BeginSection inside an open section");
  AppendU32(&out_, static_cast<uint32_t>(name.size()));
  out_.append(name);
  payload_len_at_ = out_.size();
  AppendU64(&out_, 0);  // patched by EndSection
  in_section_ = true;
}

void SnapshotWriter::EndSection() {
  assert(in_section_ && "EndSection without BeginSection");
  const uint64_t payload_len =
      static_cast<uint64_t>(out_.size() - payload_len_at_ - 8);
  std::memcpy(out_.data() + payload_len_at_, &payload_len, 8);
  in_section_ = false;
}

void SnapshotWriter::PutU32(uint32_t v) {
  assert(in_section_);
  AppendU32(&out_, v);
}

void SnapshotWriter::PutU64(uint64_t v) {
  assert(in_section_);
  AppendU64(&out_, v);
}

void SnapshotWriter::PutI64(int64_t v) {
  PutU64(static_cast<uint64_t>(v));
}

void SnapshotWriter::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(bits);
}

void SnapshotWriter::PutBool(bool v) { PutU32(v ? 1 : 0); }

void SnapshotWriter::PutString(std::string_view s) {
  assert(in_section_);
  AppendU64(&out_, s.size());
  out_.append(s);
}

void SnapshotWriter::Reserve(size_t bytes) {
  out_.reserve(out_.size() + bytes + 8);  // + the footer's two u32s
}

std::string SnapshotWriter::Finish() && {
  assert(!in_section_ && "Finish with an open section");
  AppendU32(&out_, kFooterMagic);
  AppendU32(&out_, Crc32(out_));
  return std::move(out_);
}

Result<std::string_view> SectionCursor::Take(size_t n) {
  if (payload_.size() - pos_ < n) {
    return Status::ParseError("snapshot section truncated: need " +
                              std::to_string(n) + " bytes, have " +
                              std::to_string(remaining()));
  }
  std::string_view view = payload_.substr(pos_, n);
  pos_ += n;
  return view;
}

Result<uint32_t> SectionCursor::ReadU32() {
  LOGMINE_ASSIGN_OR_RETURN(std::string_view bytes, Take(4));
  return LoadU32(bytes.data());
}

Result<uint64_t> SectionCursor::ReadU64() {
  LOGMINE_ASSIGN_OR_RETURN(std::string_view bytes, Take(8));
  return LoadU64(bytes.data());
}

Result<uint64_t> SectionCursor::ReadCount(size_t min_entry_bytes) {
  LOGMINE_ASSIGN_OR_RETURN(uint64_t count, ReadU64());
  if (count > remaining() / min_entry_bytes) {
    return Status::ParseError(
        "snapshot count " + std::to_string(count) + " of " +
        std::to_string(min_entry_bytes) + "-byte entries exceeds the " +
        std::to_string(remaining()) + " bytes left");
  }
  return count;
}

Result<int64_t> SectionCursor::ReadI64() {
  LOGMINE_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<double> SectionCursor::ReadDouble() {
  LOGMINE_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

Result<bool> SectionCursor::ReadBool() {
  LOGMINE_ASSIGN_OR_RETURN(uint32_t v, ReadU32());
  if (v > 1) {
    return Status::ParseError("snapshot bool out of range: " +
                              std::to_string(v));
  }
  return v == 1;
}

Result<std::string_view> SectionCursor::ReadBytes() {
  LOGMINE_ASSIGN_OR_RETURN(uint64_t len, ReadU64());
  if (len > remaining()) {
    return Status::ParseError("snapshot string truncated: length " +
                              std::to_string(len) + " exceeds " +
                              std::to_string(remaining()) +
                              " remaining bytes");
  }
  return Take(static_cast<size_t>(len));
}

Result<std::string> SectionCursor::ReadString() {
  LOGMINE_ASSIGN_OR_RETURN(std::string_view bytes, ReadBytes());
  return std::string(bytes);
}

Status SectionCursor::ExpectEnd() const {
  if (pos_ != payload_.size()) {
    return Status::ParseError("snapshot section has " +
                              std::to_string(remaining()) +
                              " undecoded trailing bytes");
  }
  return Status::OK();
}

Result<SnapshotReader> SnapshotReader::Parse(std::string_view bytes,
                                             uint32_t expected_version) {
  // Header (8) + footer (8) is the smallest valid snapshot.
  if (bytes.size() < 16) {
    return Status::ParseError("snapshot too short: " +
                              std::to_string(bytes.size()) + " bytes");
  }
  if (LoadU32(bytes.data()) != kHeaderMagic) {
    return Status::ParseError("snapshot header magic mismatch");
  }
  const uint32_t version = LoadU32(bytes.data() + 4);
  if (version != expected_version) {
    return Status::FailedPrecondition(
        "snapshot version " + std::to_string(version) + ", expected " +
        std::to_string(expected_version));
  }
  const size_t footer_at = bytes.size() - 8;
  if (LoadU32(bytes.data() + footer_at) != kFooterMagic) {
    return Status::ParseError("snapshot footer magic mismatch (truncated?)");
  }
  const uint32_t stored_crc = LoadU32(bytes.data() + footer_at + 4);
  const uint32_t actual_crc = Crc32(bytes.substr(0, footer_at + 4));
  if (stored_crc != actual_crc) {
    return Status::ParseError("snapshot CRC mismatch (corrupt)");
  }

  SnapshotReader reader;
  reader.bytes_ = bytes;
  reader.version_ = version;
  size_t pos = 8;
  while (pos < footer_at) {
    if (footer_at - pos < 4) {
      return Status::ParseError("snapshot section header truncated");
    }
    const uint32_t name_len = LoadU32(bytes.data() + pos);
    pos += 4;
    if (footer_at - pos < size_t{name_len} + 8) {
      return Status::ParseError("snapshot section truncated");
    }
    std::string name(bytes.substr(pos, name_len));
    pos += name_len;
    const uint64_t payload_len = LoadU64(bytes.data() + pos);
    pos += 8;
    if (payload_len > footer_at - pos) {
      return Status::ParseError("snapshot section payload overruns file");
    }
    reader.sections_.emplace_back(
        std::move(name),
        std::make_pair(pos, static_cast<size_t>(payload_len)));
    pos += static_cast<size_t>(payload_len);
  }
  return reader;
}

bool SnapshotReader::HasSection(std::string_view name) const {
  for (const auto& [section_name, span] : sections_) {
    if (section_name == name) return true;
  }
  return false;
}

Result<SectionCursor> SnapshotReader::Section(std::string_view name) const {
  for (const auto& [section_name, span] : sections_) {
    if (section_name == name) {
      return SectionCursor(bytes_.substr(span.first, span.second));
    }
  }
  return Status::NotFound("snapshot has no section '" + std::string(name) +
                          "'");
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp_path = path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open for writing: " + tmp_path);
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      std::remove(tmp_path.c_str());
      return Status::Internal("write failed: " + tmp_path);
    }
    written += static_cast<size_t>(n);
  }
  // Data must be durable *before* the rename publishes the name: a
  // rename that survives a crash while the bytes do not would present a
  // torn file under the final path.
  if (::fsync(fd) != 0) {
    ::close(fd);
    std::remove(tmp_path.c_str());
    return Status::Internal("fsync failed: " + tmp_path);
  }
  if (::close(fd) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Internal("close failed: " + tmp_path);
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::remove(tmp_path.c_str());
    return Status::Internal("rename to " + path + " failed: " + ec.message());
  }
  // The rename is a directory mutation; without fsyncing the directory a
  // crash can forget it, so the caller who saw OK would find the old
  // file (or nothing) after reboot. Best-effort: a filesystem that
  // rejects directory fsync (some network mounts) does not fail the
  // write.
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int dir_fd = ::open(dir.empty() ? "." : dir.c_str(),
                            O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

Status WriteSnapshotFile(const std::string& path, std::string_view bytes) {
  LOGMINE_SPAN_GLOBAL("checkpoint/write", obs::Metric::kCheckpointWriteNs);
  if (Status s = WriteFileAtomic(path, bytes); !s.ok()) return s;
  obs::Count(obs::Metric::kCheckpointSnapshotsWritten);
  obs::Count(obs::Metric::kCheckpointBytesWritten,
             static_cast<int64_t>(bytes.size()));
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open for reading: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::Internal("read failed: " + path);
  }
  return std::move(buffer).str();
}

}  // namespace logmine
