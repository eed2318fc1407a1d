#ifndef LOGMINE_TESTS_LOG_REFERENCE_LINE_DECODER_H_
#define LOGMINE_TESTS_LOG_REFERENCE_LINE_DECODER_H_

#include <string_view>

#include "log/codec.h"
#include "log/record.h"
#include "util/result.h"
#include "util/time_util.h"

namespace logmine::reference {

/// The line decoder `LineCodec::Decode` replaced, kept as a test oracle:
/// split on unescaped '|' into one std::string per field, then read both
/// timestamps with sscanf("%d-%d-%d %d:%d:%d.%d"). Same checks in the
/// same order, same error classes and messages.
Result<LogRecord> Decode(std::string_view line, IngestErrorClass* error_class);

/// The sscanf timestamp reader. Where the original had undefined
/// behaviour — a digit run too long for an int, or a year whose
/// milliseconds overflow TimeMs — it returns the new parser's
/// "timestamp field out of range" instead, so the oracle stays defined.
Result<TimeMs> ParseTime(std::string_view text);

}  // namespace logmine::reference

#endif  // LOGMINE_TESTS_LOG_REFERENCE_LINE_DECODER_H_
