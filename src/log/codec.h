#ifndef LOGMINE_LOG_CODEC_H_
#define LOGMINE_LOG_CODEC_H_

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "log/record.h"
#include "log/store.h"
#include "util/result.h"

namespace logmine {

/// What DecodeAll does when it meets a malformed line.
enum class DecodePolicy {
  /// Abort the whole decode on the first malformed line (the historical
  /// behaviour; the default).
  kFailFast,
  /// Skip malformed lines, recording each in `IngestStats`, and fail only
  /// when the bad-line fraction exceeds `DecodeOptions::max_bad_fraction`.
  kQuarantine,
};

/// Machine-readable class of a single-line decode failure, used to
/// aggregate `IngestStats` per error kind.
enum class IngestErrorClass {
  kBadEscape = 0,   ///< dangling or unknown backslash escape
  kFieldCount,      ///< not exactly 7 unescaped-pipe-separated fields
  kBadTimestamp,    ///< client or server timestamp failed to parse
  kBadSeverity,     ///< severity name outside DEBUG/INFO/WARN/ERROR
  kEmptySource,     ///< structurally valid line with an empty source field
  /// Malformed *unterminated* final line under
  /// `DecodeOptions::lenient_truncated_tail` — presumed cut off
  /// mid-write rather than corrupt.
  kTruncatedLine,
};
inline constexpr size_t kNumIngestErrorClasses = 6;

/// Stable human-readable name for an error class (e.g. "BadEscape").
std::string_view IngestErrorClassName(IngestErrorClass error_class);

/// Knobs of a lenient (or strict) corpus decode.
struct DecodeOptions {
  DecodePolicy policy = DecodePolicy::kFailFast;
  /// Quarantine mode only: maximum tolerated ratio of malformed to total
  /// non-blank lines. Exceeding it fails the decode (the corpus is too
  /// dirty to trust), but `IngestStats` is still fully populated.
  double max_bad_fraction = 0.0;
  /// How many offending lines to keep verbatim in `IngestStats::samples`.
  size_t max_samples = 10;
  /// When true, a malformed final line with no terminating newline is
  /// quarantined as kTruncatedLine instead of failing the decode — under
  /// *either* policy, and without counting against `max_bad_fraction`.
  /// A file a writer died on (WriteCorpusFile is atomic, but foreign
  /// corpora and live tails are not) loses at most that one cut-off
  /// line instead of the whole file. Interior damage still fails or
  /// quarantines exactly as before.
  bool lenient_truncated_tail = false;
  /// Number of chunks a `DecodeAll` buffer is split into (at newline
  /// boundaries) and decoded concurrently on the shared executor pool.
  /// 0 (the default) = one chunk per pool thread, floored so every chunk
  /// spans at least ~64 KiB — small buffers stay serial; 1 = strictly
  /// serial on the caller; n = exactly n chunks regardless of size.
  /// The decoded store (records, dictionaries and their ids),
  /// `IngestStats` (counts, per-class tallies, first-K samples with
  /// their line numbers and byte offsets), error budget judgement, and
  /// any fail-fast error are byte-identical for every chunk count:
  /// per-chunk results merge in index order, the same
  /// deterministic-merge discipline as the sharded miner counters.
  int num_chunks = 0;
};

/// One quarantined line, kept for the first-K sample in `IngestStats`.
struct QuarantinedLine {
  size_t line_number = 0;  ///< 1-based
  size_t byte_offset = 0;  ///< offset of the line start in the input
  IngestErrorClass error_class = IngestErrorClass::kFieldCount;
  std::string error;  ///< the per-line decode error message
  std::string text;   ///< the offending line, verbatim
};

/// Report of a corpus decode: how many lines were seen, decoded and
/// quarantined, broken down by error class, plus a first-K sample of the
/// offending lines. Populated by `LineCodec::DecodeAll` (and by
/// `ReadCorpusFile`) under either policy. Repeated `DecodeAll` calls
/// against the same struct *accumulate* (counts add, samples keep
/// filling up to the call's `max_samples`), so a multi-file ingest can
/// report one combined health summary; zero-initialize to start fresh.
struct IngestStats {
  size_t lines_total = 0;        ///< non-blank lines seen
  size_t records_decoded = 0;    ///< lines that produced a record
  size_t lines_quarantined = 0;  ///< malformed lines skipped
  std::array<size_t, kNumIngestErrorClasses> by_class{};
  std::vector<QuarantinedLine> samples;  ///< first-K offenders

  /// lines_quarantined / lines_total; 0 on an empty input.
  double bad_fraction() const;

  /// Adds `other`'s counts into this report; `other`'s samples are
  /// appended until `samples` holds `max_samples` entries.
  void MergeFrom(const IngestStats& other, size_t max_samples);

  /// Multi-line human-readable report (counts per class + samples).
  std::string ToString() const;
};

/// Serializes log records to/from the pipe-separated line format used for
/// on-disk corpora and the example binaries:
///
///   client_ts|server_ts|SEVERITY|source|host|user|message
///
/// Timestamps render as "YYYY-MM-DD HH:MM:SS.mmm". Pipe, backslash and
/// newline inside string fields are escaped (`\|`, `\\`, `\n`), so any
/// message round-trips. Decode rejects malformed lines with ParseError
/// instead of guessing.
class LineCodec {
 public:
  static std::string Encode(const LogRecord& record);
  static Result<LogRecord> Decode(std::string_view line);

  /// As `Decode`, but on failure also reports which error class the line
  /// falls into (when `error_class` is non-null). The bulk decode below
  /// runs the same line decoder, so the two always agree on a line.
  static Result<LogRecord> Decode(std::string_view line,
                                  IngestErrorClass* error_class);

  /// Encodes many records, one line each, with trailing newline per line.
  static std::string EncodeAll(const std::vector<LogRecord>& records);

  /// Decodes a whole text buffer straight into a `LogStore` (index not
  /// built); empty lines are skipped. Source, host and user are interned
  /// in first-seen order, so ids match a loop of `LogStore::Append` over
  /// the lines. Fails on the first malformed line, reporting its 1-based
  /// line number and byte offset (fail-fast policy).
  static Result<LogStore> DecodeAll(std::string_view text);

  /// Policy-driven variant. Under kFailFast it behaves exactly like the
  /// overload above; under kQuarantine malformed lines are skipped and
  /// tallied, and the decode fails only when the bad-line fraction
  /// exceeds `options.max_bad_fraction` (judged on this call's lines
  /// alone). `stats`, when non-null, is *accumulated into* under both
  /// policies (under kFailFast up to the failure) — see IngestStats.
  static Result<LogStore> DecodeAll(std::string_view text,
                                    const DecodeOptions& options,
                                    IngestStats* stats);
};

}  // namespace logmine

#endif  // LOGMINE_LOG_CODEC_H_
