#ifndef LOGMINE_CORE_L2_SESSION_BUILDER_H_
#define LOGMINE_CORE_L2_SESSION_BUILDER_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "log/store.h"
#include "util/time_util.h"

namespace logmine::core {

/// One log inside a reconstructed user session: only source and time are
/// used downstream — "a session is treated as an ordered sequence of
/// activity statements by different applications".
struct SessionLogEntry {
  TimeMs ts = 0;
  LogStore::SourceId source = 0;
};

/// A reconstructed user session.
struct Session {
  LogStore::UserId user = 0;
  std::vector<SessionLogEntry> entries;  ///< ordered by ts

  TimeMs start() const { return entries.empty() ? 0 : entries.front().ts; }
  TimeMs end() const { return entries.empty() ? 0 : entries.back().ts; }
};

/// Session reconstruction parameters. The paper's exact algorithm is
/// site-specific; we group context-bearing logs per user and split on
/// inactivity, which matches its observable outputs (session counts,
/// fraction of logs assigned).
struct SessionBuilderConfig {
  /// A gap longer than this ends the user's current session.
  TimeMs max_gap = 30 * kMillisPerMinute;
  /// Sessions with fewer logs are discarded as noise.
  size_t min_logs = 5;
};

/// Aggregate statistics of one build, mirroring §4.6's reporting.
struct SessionBuildStats {
  size_t num_sessions = 0;
  int64_t logs_considered = 0;  ///< logs in the interval
  int64_t logs_with_context = 0;
  int64_t logs_assigned = 0;    ///< in a surviving session
  double assigned_fraction = 0.0;
};

/// The session rule, shared by `SessionBuilder::Build` and the
/// streaming window's rebuild. Context-bearing logs arrive in time
/// order. A log more than `max_gap` after its user's previous one
/// closes that user's open session, and a closed session survives only
/// with at least `min_logs` entries. Adds no metrics; callers own spans
/// and counters.
class SessionSplitter {
 public:
  explicit SessionSplitter(const SessionBuilderConfig& config)
      : config_(config) {}

  /// Adds the next context-bearing log, of `user`.
  void Add(LogStore::UserId user, const SessionLogEntry& entry) {
    ++stats_.logs_with_context;
    auto it = open_.find(user);
    if (it != open_.end() &&
        entry.ts - it->second.entries.back().ts > config_.max_gap) {
      Close(std::move(it->second));
      open_.erase(it);
      it = open_.end();
    }
    if (it == open_.end()) it = open_.emplace(user, Session{user, {}}).first;
    it->second.entries.push_back(entry);
  }

  /// Closes the open sessions in user-id order and returns the
  /// survivors in closing order. Fills every field of `stats`, with
  /// `logs_considered` the number of logs in the interval.
  std::vector<Session> Finish(int64_t logs_considered,
                              SessionBuildStats* stats) &&;

 private:
  void Close(Session&& session) {
    if (session.entries.size() < config_.min_logs) return;
    stats_.logs_assigned += static_cast<int64_t>(session.entries.size());
    sessions_.push_back(std::move(session));
  }

  SessionBuilderConfig config_;
  std::map<LogStore::UserId, Session> open_;
  std::vector<Session> sessions_;
  SessionBuildStats stats_;
};

/// Groups the context-bearing logs of [begin, end) into user sessions.
class SessionBuilder {
 public:
  explicit SessionBuilder(SessionBuilderConfig config) : config_(config) {}

  /// Pre-condition: store.index_built(). `stats` may be null.
  std::vector<Session> Build(const LogStore& store, TimeMs begin, TimeMs end,
                             SessionBuildStats* stats) const;

 private:
  SessionBuilderConfig config_;
};

}  // namespace logmine::core

#endif  // LOGMINE_CORE_L2_SESSION_BUILDER_H_
