#ifndef LOGMINE_OBS_JOURNAL_H_
#define LOGMINE_OBS_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace logmine::obs {

class MetricsRegistry;

/// Nanoseconds on the process-wide steady clock, relative to the first
/// call (so journal timestamps are small and monotonic). Thread-safe.
int64_t MonotonicNowNs();

/// Small dense id of the calling thread (assigned on first use, stable
/// for the thread's lifetime) — the `tid` of every journal event.
uint32_t CurrentTraceThreadId();

/// One typed key/value of a journal event. Values are pre-rendered JSON
/// fragments so emission is a single concatenation; build them through
/// the factories, never by hand.
struct JournalField {
  std::string key;
  std::string value;  ///< rendered JSON (quoted string, number, bool)

  static JournalField Str(std::string_view key, std::string_view value);
  static JournalField Num(std::string_view key, int64_t value);
  static JournalField Flag(std::string_view key, bool value);
};

/// What one timed stage cost, as read by `StageClock::End`.
struct StageRecord {
  int64_t end_ns = 0;      ///< MonotonicNowNs at the scope's end
  int64_t dur_ns = 0;      ///< wall time of the scope
  int64_t cpu_ns = 0;      ///< the calling thread's CPU time over the scope
  int64_t max_rss_kb = 0;  ///< the process's peak RSS at the scope's end
};

/// The one clock of a timed stage: every journal event that closes a
/// scope (a span, a miner, a shard attempt, a sweep, an epoch ingest, a
/// publish) takes its stage record from here, through
/// `Journal::Emit(span, event, stage, fields)`. Starts at construction;
/// `End` reads the wall clock, the calling thread's CPU clock and one
/// `getrusage`.
///
/// `cpu_ns` is the CPU time of the thread that constructed the clock and
/// must also end it. A stage that fans out to executor workers reports
/// only that calling thread's share; the workers' CPU shows up in their
/// own stages.
class StageClock {
 public:
  StageClock();

  /// Wall nanoseconds since construction.
  int64_t ElapsedNs() const;

  StageRecord End() const;

 private:
  int64_t start_ns_;
  int64_t start_cpu_ns_;
};

/// Knobs of one journal.
struct JournalOptions {
  /// JSONL file to append to; empty keeps the journal memory-only (the
  /// tail ring still works, so introspection and postmortems do too).
  std::string path;
  /// Rotation threshold: when the current file exceeds this many bytes
  /// the journal rotates (`path` -> `path.1` -> ... -> dropped).
  size_t max_bytes_per_file = 4u << 20;
  /// Rotated generations kept besides the live file.
  size_t max_rotated_files = 2;
  /// Most-recent rendered lines kept in memory for `Tail()`.
  size_t tail_capacity = 256;
};

/// Crash-safe structured event journal, the library's one event model:
/// every stage / shard / epoch / publish / quarantine / retry / breaker
/// / health boundary appends one wide JSONL event carrying the
/// process-unique `run_id` and a hierarchical span id
/// ("sweep-1/d0.r2/a1"), flushed line-by-line so the file is truthful
/// up to the last boundary even after SIGKILL. Every event carries the
/// emitting thread's `tid`. An event that closes a timed scope carries
/// a `StageClock` record — `dur_ns`, `cpu_ns`, `max_rss_kb` — and its
/// `ts_ns` is the scope's end, so the same stream answers both "what
/// happened, in which attempt of which shard of which run" and "where
/// the time and memory went" (JournalToChromeTrace).
///
/// Thread-safe: one short mutex per event; events are boundary-granular
/// (per stage/epoch, never per log line), so the lock is cold.
class Journal {
 public:
  explicit Journal(const JournalOptions& options = {},
                   MetricsRegistry* metrics = nullptr);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Process-unique id stamped on every event, so lines from interleaved
  /// or restarted runs never correlate by accident.
  const std::string& run_id() const { return run_id_; }

  /// Mints a new root span id "<prefix>-<n>" (n counts per journal):
  /// children append path segments by concatenation, e.g.
  /// BeginRootSpan("sweep") -> "sweep-1", shard cell -> "sweep-1/d0.r2",
  /// attempt 3 -> "sweep-1/d0.r2/a3".
  std::string BeginRootSpan(std::string_view prefix);

  /// Appends one event: {"ts_ns":..,"run":..,"tid":..,"span":..,
  /// "event":..,<fields>}. Flushes to disk before returning.
  void Emit(std::string_view span, std::string_view event,
            const std::vector<JournalField>& fields = {});

  /// Appends the event that closes a timed stage: `fields` followed by
  /// the record's dur_ns, cpu_ns and max_rss_kb, stamped with the
  /// stage's end (`stage.end_ns`) rather than the time of the call, so
  /// [ts_ns - dur_ns, ts_ns] is the scope however late the call runs.
  void Emit(std::string_view span, std::string_view event,
            const StageRecord& stage, std::vector<JournalField> fields = {});

  /// The most recent `n` rendered lines (oldest first), capped by the
  /// tail capacity.
  std::vector<std::string> Tail(size_t n) const;

  /// Events emitted through this journal (including rotated-away ones).
  uint64_t events_emitted() const;
  /// File rotations performed.
  uint64_t rotations() const;
  const JournalOptions& options() const { return options_; }

 private:
  void Append(int64_t ts_ns, std::string_view span, std::string_view event,
              const std::vector<JournalField>& fields);
  void RotateLocked();

  const JournalOptions options_;
  MetricsRegistry* const metrics_;  ///< may be null
  const std::string run_id_;
  std::atomic<uint64_t> next_span_{0};

  mutable std::mutex mu_;
  std::ofstream file_;
  size_t bytes_written_ = 0;
  uint64_t events_ = 0;
  uint64_t rotations_ = 0;
  std::deque<std::string> tail_;
};

/// Converts journal JSONL (one run's worth) into Chrome/Perfetto
/// `trace_event` JSON: events carrying a `dur_ns` field become complete
/// "X" spans covering [ts_ns - dur_ns, ts_ns], all others instant
/// events, named "span event", one row per emitting thread (`tid`; a
/// line without one, from an older journal, goes to row 0). Scopes on
/// one thread nest, so each row reads as a call stack. Lines that do
/// not parse are skipped (a torn final line after a crash is expected,
/// not an error).
std::string JournalToChromeTrace(std::string_view jsonl);

/// Reads `journal_path` and writes the converted trace to `trace_path`.
Status ConvertJournalToChromeTrace(const std::string& journal_path,
                                   const std::string& trace_path);

}  // namespace logmine::obs

#endif  // LOGMINE_OBS_JOURNAL_H_
