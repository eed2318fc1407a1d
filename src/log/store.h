#ifndef LOGMINE_LOG_STORE_H_
#define LOGMINE_LOG_STORE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "log/name_interner.h"
#include "log/record.h"
#include "util/result.h"
#include "util/time_util.h"

namespace logmine {

/// Columnar, append-only store for a log corpus.
///
/// Source, host and user strings are interned into dense ids; timestamps
/// and ids live in flat columns. Records may be appended in any order —
/// the simulator emits slightly out of order because of clock skew,
/// exactly like the real system. `BuildIndex` puts the store in time
/// order: afterwards record i is the i-th log by (client_ts, append
/// order), so any time range is one contiguous run of records (the
/// access path of L2, L3 and every slice). It also materializes a
/// sorted per-source timestamp index (the access path of the L1 miner).
///
/// Both steps take time linear in the record count: the order comes
/// from a stable LSD radix sort (16-bit digits of client_ts - min_ts)
/// and is applied with one gather per column, message arena included;
/// a store whose client_ts is already non-decreasing skips both. The
/// per-source timestamps are one flat CSR column filled by scattering
/// the (now time-ordered) records, so every source's slice is born
/// sorted.
///
/// Not thread-safe; build once, then mine.
class LogStore {
 public:
  using SourceId = uint32_t;
  using HostId = uint32_t;
  using UserId = uint32_t;

  /// Sentinel for "no user context on this record".
  static constexpr UserId kNoUser = UINT32_MAX;
  /// Sentinel for "no host recorded".
  static constexpr HostId kNoHost = UINT32_MAX;

  LogStore() = default;
  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;
  LogStore(LogStore&&) = default;
  LogStore& operator=(LogStore&&) = default;

  /// Appends one record; `record.source` must be non-empty.
  /// Invalidates indexes built earlier.
  Status Append(const LogRecord& record);

  /// Raw column material for `FromColumns` — the zero-parse bulk-load
  /// path of the binary columnar corpus reader. All record vectors must
  /// share one length; ids must index into the dictionaries, with
  /// kNoHost / kNoUser as the only out-of-range values allowed.
  /// Message text arrives as one arena (`message_data`) plus the
  /// end offset of each record's message (`message_ends`, one entry per
  /// record, non-decreasing, last == message_data.size()); both may be
  /// left empty when the caller skipped the text column. Dictionary
  /// names must be unique; sources non-empty.
  struct Columns {
    std::vector<TimeMs> client_ts;
    std::vector<TimeMs> server_ts;
    std::vector<Severity> severity;
    std::vector<SourceId> source_ids;
    std::vector<HostId> host_ids;
    std::vector<UserId> user_ids;
    std::string message_data;
    std::vector<size_t> message_ends;
    std::vector<std::string> source_names;
    std::vector<std::string> host_names;
    std::vector<std::string> user_names;
  };

  /// Builds a store directly from column material, validating shape and
  /// id ranges and rebuilding the intern maps — no per-record parse or
  /// re-intern. InvalidArgument on any inconsistency (ragged columns,
  /// id out of range, duplicate or empty dictionary names).
  static Result<LogStore> FromColumns(Columns&& columns);

  /// Number of records.
  size_t size() const { return client_ts_.size(); }
  bool empty() const { return client_ts_.empty(); }

  // --- column accessors (index < size()) ---
  TimeMs client_ts(size_t i) const { return client_ts_[i]; }
  TimeMs server_ts(size_t i) const { return server_ts_[i]; }
  Severity severity(size_t i) const { return severity_[i]; }
  SourceId source_id(size_t i) const { return source_ids_[i]; }
  HostId host_id(size_t i) const { return host_ids_[i]; }
  UserId user_id(size_t i) const { return user_ids_[i]; }
  std::string_view message(size_t i) const {
    const size_t begin = i == 0 ? 0 : message_ends_[i - 1];
    return std::string_view(message_data_)
        .substr(begin, message_ends_[i] - begin);
  }
  /// The messages of records [first, last), concatenated: one view of
  /// the arena.
  std::string_view messages(size_t first, size_t last) const {
    const size_t begin = first == 0 ? 0 : message_ends_[first - 1];
    const size_t end = last == 0 ? 0 : message_ends_[last - 1];
    return std::string_view(message_data_).substr(begin, end - begin);
  }

  /// Reassembles a full record (copying strings).
  LogRecord GetRecord(size_t i) const;

  /// Every record in store order, reassembled as by `GetRecord`.
  std::vector<LogRecord> Records() const;

  /// Equal when the record columns, the message arena and the
  /// dictionaries (names in id order) are; indexes are not compared.
  friend bool operator==(const LogStore& a, const LogStore& b);

  // --- dictionaries ---
  size_t num_sources() const { return sources_.size(); }
  size_t num_hosts() const { return hosts_.size(); }
  size_t num_users() const { return users_.size(); }
  std::string_view source_name(SourceId id) const {
    return sources_.name(id);
  }
  std::string_view host_name(HostId id) const { return hosts_.name(id); }
  std::string_view user_name(UserId id) const { return users_.name(id); }

  /// Looks up a source by exact name.
  Result<SourceId> FindSource(std::string_view name) const;

  // --- indexes ---

  /// Reorders the records into (client_ts, append order) — a stable
  /// sort, so records with equal timestamps keep their relative order —
  /// and builds the per-source sorted timestamp index. Record indices
  /// taken before the call are invalid after it; dictionaries and ids
  /// are untouched. Idempotent until the next Append, which appends
  /// after the sorted records and clears the index.
  void BuildIndex();
  bool index_built() const { return index_built_; }

  /// Sorted client timestamps of all logs of `source`: a view of the
  /// index, valid until the next Append/BuildIndex.
  /// Pre-condition: BuildIndex() has run.
  std::span<const TimeMs> SourceTimestamps(SourceId source) const;

  /// Zero-copy view of `source`'s sorted timestamps with client_ts in
  /// [begin, end) — the L1/Agrawal per-slot access path. The view stays
  /// valid until the next Append/BuildIndex.
  /// Pre-condition: BuildIndex() has run.
  std::span<const TimeMs> SourceTimestampsInRange(SourceId source,
                                                  TimeMs begin,
                                                  TimeMs end) const;

  /// Number of logs of `source` with client_ts in [begin, end).
  /// Pre-condition: BuildIndex() has run.
  int64_t CountInRange(SourceId source, TimeMs begin, TimeMs end) const;

  /// Earliest / latest client timestamp; 0 on an empty store. O(1) on
  /// an indexed store (its first and last record).
  TimeMs min_ts() const;
  TimeMs max_ts() const;

 private:
  std::vector<TimeMs> client_ts_;
  std::vector<TimeMs> server_ts_;
  std::vector<Severity> severity_;
  std::vector<SourceId> source_ids_;
  std::vector<HostId> host_ids_;
  std::vector<UserId> user_ids_;
  // Message text lives in one arena: record i's message is
  // message_data_[end(i-1), end(i)). One allocation for the whole
  // corpus instead of one std::string per record.
  std::string message_data_;
  std::vector<size_t> message_ends_;

  NameInterner sources_;
  NameInterner hosts_;
  NameInterner users_;

  bool index_built_ = false;
  // Per-source timestamps in CSR form: source s owns
  // source_ts_[source_begin_[s], source_begin_[s + 1]), sorted.
  std::vector<size_t> source_begin_;
  std::vector<TimeMs> source_ts_;
};

}  // namespace logmine

#endif  // LOGMINE_LOG_STORE_H_
