#include "log/record.h"

namespace logmine {

bool operator==(const LogRecord& a, const LogRecord& b) {
  return a.client_ts == b.client_ts && a.server_ts == b.server_ts &&
         a.severity == b.severity && a.source == b.source &&
         a.host == b.host && a.user == b.user && a.message == b.message;
}

}  // namespace logmine
