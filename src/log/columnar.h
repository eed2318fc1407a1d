#ifndef LOGMINE_LOG_COLUMNAR_H_
#define LOGMINE_LOG_COLUMNAR_H_

#include <string>
#include <string_view>

#include "log/store.h"
#include "util/result.h"
#include "util/snapshot.h"

namespace logmine {

class MmapFile;

/// Payload version of the columnar corpus sections. Bump when a column
/// layout changes; the container version is util/snapshot's.
inline constexpr uint32_t kColumnarVersion = 1;

/// Knobs of a columnar read.
struct ColumnarReadOptions {
  /// When false the free-text message column — usually the bulk of the
  /// file — is never decoded (and its blob never copied): every record's
  /// message reads back empty. The L1/L2 miners consume only timestamps
  /// and ids, so their load path skips the text entirely.
  bool load_messages = true;
};

/// Binary columnar corpus format
/// -----------------------------
///
/// The interchange format stays the pipe-separated text of log/codec.h;
/// this is the *fast* on-disk shape: decode once, re-read at memcpy
/// speed. It reuses the snapshot container (magic "LMSN", named
/// length-prefixed sections, footer CRC — util/snapshot.h), so any
/// truncation or bit rot is a detectable ParseError, and readers skip
/// sections they do not want. Sections:
///
///   cmeta  u32 columnar version | u64 num_records |
///          u32 num_sources | u32 num_hosts | u32 num_users
///   ctime  varint column: per record, zigzag(client_ts - prev client_ts)
///          then zigzag(server_ts - client_ts) — deltas are small, so
///          the 8-byte timestamps shrink to ~2 bytes each
///   cids   varint columns: severity, source_id, host_id+1, user_id+1
///          (0 encodes the kNoHost / kNoUser sentinel)
///   cdict  the three intern dictionaries, length-prefixed strings
///   ctext  varint message lengths, then the concatenated message blob —
///          last and self-contained so a reader can skip the text column
///          without touching its bytes
///
/// A text corpus and its columnar encoding are losslessly convertible in
/// both directions: decode text -> LogStore -> EncodeColumnar, and
/// DecodeColumnar -> LogStore -> LineCodec::EncodeAll reproduce each
/// other record-for-record (dictionary ids follow first-appearance
/// order, the same order text ingest interns them).
///
/// Reads copy nothing but the text. The SnapshotReader and its cursors
/// view the caller's bytes — ReadColumnarFile's file mapping, which it
/// keeps alive for the decode — so neither the file nor any column
/// section is copied. The varint loops write into columns pre-sized
/// from `num_records`, and only the message blob is copied, once, into
/// the store's arena. Every header count is checked against the bytes
/// of its section before it sizes anything: at most ctime bytes / 2
/// records (each takes two varints) and cdict bytes / 8 names (each
/// takes its 8-byte length prefix).
///
/// Records are written in store order, so a file written from an
/// indexed store is in time order. The index is not stored;
/// ReadCorpusFile rebuilds it after the decode (LogStore::BuildIndex),
/// which on such a file skips the sort and only fills the per-source
/// timestamp column. An out-of-order file is sorted there, in time
/// linear in the record count.

/// Serializes `store`'s columns (records + dictionaries; indexes are
/// rebuilt on load) into a finished snapshot container.
std::string EncodeColumnar(const LogStore& store);

/// Parses a buffer produced by `EncodeColumnar` back into a store,
/// straight from `bytes` (which need only outlive the call). ParseError
/// on any corruption (bad CRC, truncated section, id out of range, a
/// count larger than its section can hold); FailedPrecondition on a
/// version mismatch.
Result<LogStore> DecodeColumnar(std::string_view bytes,
                                const ColumnarReadOptions& options = {});

/// Composable halves of Encode/DecodeColumnar, for writers that embed
/// the corpus sections in a larger snapshot (the eval dataset cache adds
/// its own sections alongside). `AppendColumnarSections` must be called
/// between sections, not inside one.
void AppendColumnarSections(const LogStore& store, SnapshotWriter* writer);
Result<LogStore> DecodeColumnarSections(const SnapshotReader& reader,
                                        const ColumnarReadOptions& options);

/// Writes `store` to `path` in columnar form, atomically and durably
/// (util/snapshot's WriteFileAtomic discipline).
Status WriteColumnarFile(const std::string& path, const LogStore& store);

/// Reads a columnar corpus file, decoding from its mapping. NotFound
/// when absent; ParseError when corrupt.
Result<LogStore> ReadColumnarFile(const std::string& path,
                                  const ColumnarReadOptions& options = {});

/// ReadColumnarFile over a file the caller has already mapped — the path
/// of ReadCorpusFile, which maps once to sniff the format. Same decode,
/// span and `ingest.columnar_*` counters.
Result<LogStore> ReadColumnarMapping(const MmapFile& file,
                                     const ColumnarReadOptions& options = {});

/// True when `bytes` starts with the snapshot container magic — the
/// format autodetection ReadCorpusFile uses: columnar corpora start
/// with "LMSN", text corpora with a timestamp digit.
bool LooksColumnar(std::string_view bytes);

}  // namespace logmine

#endif  // LOGMINE_LOG_COLUMNAR_H_
