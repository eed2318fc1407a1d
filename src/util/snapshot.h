#ifndef LOGMINE_UTIL_SNAPSHOT_H_
#define LOGMINE_UTIL_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"

namespace logmine {

/// CRC-32 (IEEE 802.3 polynomial, the zlib variant) of `bytes`.
/// Folds the bulk with carry-less multiplies where the CPU has
/// PCLMULQDQ and SSE4.1 (checked once), else runs slice-by-16 tables.
uint32_t Crc32(std::string_view bytes);

namespace internal {
/// The two paths `Crc32` picks between, exposed only so that tests can
/// run both on the same input. Each returns `Crc32(bytes)`.
uint32_t Crc32Table(std::string_view bytes);
/// Pre-condition: `Crc32FoldSupported()`.
uint32_t Crc32Fold(std::string_view bytes);
bool Crc32FoldSupported();
}  // namespace internal

/// Current version of the snapshot container format. Bump when the
/// *container* layout changes; section payload layouts are versioned by
/// the writers (see core/serialization.h).
inline constexpr uint32_t kSnapshotVersion = 1;

/// Builds one snapshot: a versioned, sectioned, CRC-protected byte
/// string — the on-disk unit of the checkpoint/recovery layer.
///
/// Layout (all integers little-endian, fixed width):
///   u32 magic "LMSN" | u32 version
///   per section: u32 name_len | name | u64 payload_len | payload
///   footer: u32 magic "PANS" | u32 crc32(everything before the footer)
///
/// The per-section length prefixes let a reader skip unknown sections,
/// and the footer CRC turns any truncation or bit rot anywhere in the
/// file into a detectable parse failure instead of silently wrong state.
///
/// Example:
///   SnapshotWriter w;
///   w.BeginSection("meta");
///   w.PutU64(fingerprint);
///   w.EndSection();
///   std::string bytes = std::move(w).Finish();
class SnapshotWriter {
 public:
  explicit SnapshotWriter(uint32_t version = kSnapshotVersion);

  /// Starts a named section; every Put* call lands in it.
  void BeginSection(std::string_view name);
  /// Closes the current section, patching its length prefix.
  void EndSection();

  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutDouble(double v);
  void PutBool(bool v);
  /// Length-prefixed (u64) byte string.
  void PutString(std::string_view s);

  /// Makes room for `bytes` more bytes of sections and for the footer,
  /// so that writing that much and `Finish` do not reallocate. Output
  /// bytes do not depend on it.
  void Reserve(size_t bytes);

  /// Appends the CRC footer and returns the finished snapshot. The
  /// writer is spent afterwards. Pre-condition: no open section.
  std::string Finish() &&;

 private:
  std::string out_;
  size_t payload_len_at_ = 0;  ///< offset of the open section's length prefix
  bool in_section_ = false;
};

/// Bounds-checked reader over one section's payload. Views into the
/// bytes the SnapshotReader was parsed from — keep them alive while
/// cursors (and views they returned) are in use. Every read fails with
/// ParseError instead of walking off the end, so a payload truncated
/// *inside* a section (CRC collisions aside, only possible with a
/// hand-built file) still cannot crash.
class SectionCursor {
 public:
  SectionCursor(std::string_view payload) : payload_(payload) {}

  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  /// A u64 entry count, each entry at least `min_entry_bytes` (> 0)
  /// long: ParseError when that many entries cannot fit in the bytes
  /// left, so a hostile count never sizes an allocation.
  Result<uint64_t> ReadCount(size_t min_entry_bytes);
  Result<int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<bool> ReadBool();
  /// Length-prefixed (u64) byte string as a view of the payload: the
  /// zero-copy read of a bulk column.
  Result<std::string_view> ReadBytes();
  /// `ReadBytes`, copied.
  Result<std::string> ReadString();

  size_t remaining() const { return payload_.size() - pos_; }
  /// ParseError when payload bytes remain — catches layout drift where
  /// the decoder read less than the encoder wrote.
  Status ExpectEnd() const;

 private:
  Result<std::string_view> Take(size_t n);

  std::string_view payload_;
  size_t pos_ = 0;
};

/// Parses and validates a snapshot produced by SnapshotWriter.
///
/// Validation order: container magic -> version -> footer magic -> CRC
/// -> section structure, all before any section is read. A version
/// mismatch is FailedPrecondition (the recovery layer treats it as a
/// stale generation); every other defect is ParseError.
///
/// The reader does not own `bytes`: it and its cursors view them, so the
/// caller keeps them alive (a file mapping, a string) while either is in
/// use. Parsing a temporary string is a compile error rather than a
/// dangling view.
class SnapshotReader {
 public:
  static Result<SnapshotReader> Parse(std::string_view bytes,
                                      uint32_t expected_version =
                                          kSnapshotVersion);
  static Result<SnapshotReader> Parse(std::string&& bytes,
                                      uint32_t expected_version =
                                          kSnapshotVersion) = delete;

  uint32_t version() const { return version_; }
  bool HasSection(std::string_view name) const;
  /// Cursor over the named section's payload; NotFound when absent.
  Result<SectionCursor> Section(std::string_view name) const;

 private:
  SnapshotReader() = default;

  std::string_view bytes_;
  uint32_t version_ = 0;
  /// name -> (offset, length) into bytes_.
  std::vector<std::pair<std::string, std::pair<size_t, size_t>>> sections_;
};

/// Writes `bytes` to `path` atomically and durably: the data goes to a
/// sibling tmp file which is fsynced, renamed into place, and the parent
/// directory is fsynced so the rename itself survives a crash (tmp +
/// rename alone leaves a window where power loss forgets the rename and
/// resurfaces the old file — or, worse, loses both names). A crash at
/// any instant leaves either the old file or the complete new one at
/// `path`, never a torn file and never a stray tmp. Failures are
/// Internal (retryable, see util/retry.h); the tmp file is removed on
/// every failure path. The shared crash-safety primitive of
/// WriteSnapshotFile, WriteCorpusFile and the columnar writer.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

/// Writes `bytes` to `path` via `WriteFileAtomic`, recording checkpoint
/// metrics and spans.
Status WriteSnapshotFile(const std::string& path, std::string_view bytes);

/// Reads a whole file. NotFound when it does not exist; Internal on I/O
/// failure.
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace logmine

#endif  // LOGMINE_UTIL_SNAPSHOT_H_
