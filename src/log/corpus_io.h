#ifndef LOGMINE_LOG_CORPUS_IO_H_
#define LOGMINE_LOG_CORPUS_IO_H_

#include <string>

#include "log/codec.h"
#include "log/store.h"
#include "util/result.h"

namespace logmine {

/// Writes all records of `store` to `path` in the line format
/// (LineCodec), one record per line, in store order: time order once the
/// index is built, append order before.
///
/// Crash-safe and durable (util/snapshot's WriteFileAtomic): the data
/// goes to a sibling tmp file, is fsynced, renamed into place, and the
/// parent directory is fsynced — an interrupted run leaves either the
/// previous corpus or the complete new one, never a truncated file that
/// a later lenient read would silently half-load, and never a stray tmp.
Status WriteCorpusFile(const LogStore& store, const std::string& path);

/// Reads a corpus into a fresh store with its index built, autodetecting
/// the format by magic bytes: a file starting with the snapshot
/// container magic "LMSN" is read as a binary columnar corpus
/// (log/columnar.h), anything else as line-format text. Text files are
/// memory-mapped and decoded in parallel chunks
/// (`DecodeOptions::num_chunks`); the result is byte-identical to a
/// serial decode. Fail-fast: the first malformed line aborts the read.
Result<LogStore> ReadCorpusFile(const std::string& path);

/// Policy-driven variant: under `DecodePolicy::kQuarantine` malformed
/// lines are skipped (within `options.max_bad_fraction`) and tallied into
/// `stats` (optional) instead of aborting the read. Columnar files have
/// no per-line failure mode — the policy is moot and `stats` untouched;
/// any corruption fails the read (the container CRC sees to it).
Result<LogStore> ReadCorpusFile(const std::string& path,
                                const DecodeOptions& options,
                                IngestStats* stats = nullptr);

}  // namespace logmine

#endif  // LOGMINE_LOG_CORPUS_IO_H_
