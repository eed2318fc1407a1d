#ifndef LOGMINE_OBS_INTROSPECT_H_
#define LOGMINE_OBS_INTROSPECT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/result.h"

namespace logmine::obs {

class ObsContext;

/// What the introspection server serves. Every handler runs on the
/// server thread, so it must be thread-safe against the process's
/// workers (snapshots, journal tails and health reads already are).
struct IntrospectionHandlers {
  /// Human-oriented status page (plain text, multi-line).
  std::function<std::string()> statusz;
  /// OpenMetrics/Prometheus text exposition.
  std::function<std::string()> metrics;
  /// One-line health summary, e.g. "healthy generation=12 staleness=0".
  std::function<std::string()> health;
  /// The newest `n` journal lines, oldest first.
  std::function<std::vector<std::string>(size_t)> journal_tail;
};

/// Live introspection endpoint: a poll()-based AF_UNIX line-protocol
/// server, the first wire surface of the serving layer. One request per
/// line, response is the payload followed by a line holding a single
/// "." (the SMTP/NNTP framing — trivially scriptable with socat or nc):
///
///   $ echo METRICS | socat - UNIX-CONNECT:/tmp/logmine.sock
///
/// Commands: STATUSZ | METRICS | HEALTH | JOURNAL TAIL [<n>], where <n>
/// is decimal digits clamped to [1, 4096] (default 32). Anything else,
/// a malformed count included, answers "ERR unknown command". The
/// server owns one background thread; Stop() (or destruction) joins it
/// and removes the socket file.
class IntrospectionServer {
 public:
  /// Binds `socket_path` (an existing stale socket file is replaced)
  /// and starts serving. sun_path limits the path to ~100 bytes.
  static Result<std::unique_ptr<IntrospectionServer>> Start(
      const std::string& socket_path, IntrospectionHandlers handlers);

  ~IntrospectionServer();
  IntrospectionServer(const IntrospectionServer&) = delete;
  IntrospectionServer& operator=(const IntrospectionServer&) = delete;

  void Stop();
  const std::string& socket_path() const { return socket_path_; }
  /// Requests answered so far (any command, including errors).
  uint64_t requests_served() const;

 private:
  IntrospectionServer(std::string socket_path,
                      IntrospectionHandlers handlers, int listen_fd,
                      int wake_read_fd, int wake_write_fd);
  void Serve();
  std::string HandleRequest(const std::string& line);

  const std::string socket_path_;
  IntrospectionHandlers handlers_;
  int listen_fd_;
  int wake_read_fd_;   ///< self-pipe: Stop() writes, poll loop wakes
  int wake_write_fd_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> requests_{0};
  std::thread thread_;
};

/// Handlers over one ObsContext: STATUSZ renders the non-zero metric
/// table plus the recent stage records (the journal tail's lines that
/// carry `dur_ns`, verbatim), METRICS the OpenMetrics text,
/// JOURNAL TAIL the context's journal. `health` is service-specific;
/// when null the endpoint reports "ok". The context must outlive the
/// server.
IntrospectionHandlers MakeObsHandlers(
    ObsContext* context, std::function<std::string()> health = nullptr);

/// Client-side one-shot helper (used by tests and the example's scrape
/// thread): connects, sends `request` + "\n", reads until the "."
/// terminator, returns the payload without the terminator.
Result<std::string> IntrospectionQuery(const std::string& socket_path,
                                       const std::string& request);

}  // namespace logmine::obs

#endif  // LOGMINE_OBS_INTROSPECT_H_
