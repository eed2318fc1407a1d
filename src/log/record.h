#ifndef LOGMINE_LOG_RECORD_H_
#define LOGMINE_LOG_RECORD_H_

#include <string>
#include <string_view>

#include "util/time_util.h"

namespace logmine {

/// Severity of a log message. The miners ignore severity, but the
/// simulator emits realistic mixes and the codec round-trips it.
enum class Severity {
  kDebug = 0,
  kInfo,
  kWarning,
  kError,
};

constexpr std::string_view SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kDebug:
      return "DEBUG";
    case Severity::kInfo:
      return "INFO";
    case Severity::kWarning:
      return "WARN";
    case Severity::kError:
      return "ERROR";
  }
  return "INFO";
}

/// A single entry of the centralized logging system.
///
/// Mirrors the paper's HUG log schema: two timestamps with 1 ms
/// resolution (client-side creation — the one the miners use, because the
/// server-side one is distorted by client buffering), a structured source
/// identifier, optional user/workstation context (present on the minority
/// of logs that can be tied to a user session), and a free-text message.
struct LogRecord {
  TimeMs client_ts = 0;  ///< creation time on the emitting machine
  TimeMs server_ts = 0;  ///< reception time at the log server
  Severity severity = Severity::kInfo;
  std::string source;    ///< emitting application or module
  std::string host;      ///< client machine / server name (may be empty)
  std::string user;      ///< user id (empty when no session context)
  std::string message;   ///< unstructured free text
};

bool operator==(const LogRecord& a, const LogRecord& b);

}  // namespace logmine

#endif  // LOGMINE_LOG_RECORD_H_
