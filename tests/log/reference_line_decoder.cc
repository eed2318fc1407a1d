#include "log/reference_line_decoder.h"

#include <array>
#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

namespace logmine::reference {
namespace {

Result<std::vector<std::string>> SplitEscaped(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\') {
      if (i + 1 >= line.size()) {
        return Status::ParseError("dangling escape at end of line");
      }
      const char next = line[++i];
      switch (next) {
        case '|':
          current += '|';
          break;
        case '\\':
          current += '\\';
          break;
        case 'n':
          current += '\n';
          break;
        default:
          return Status::ParseError(std::string("unknown escape: \\") + next);
      }
    } else if (c == '|') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

Result<Severity> ParseSeverity(std::string_view name) {
  static constexpr std::array<Severity, 4> kAll = {
      Severity::kDebug, Severity::kInfo, Severity::kWarning,
      Severity::kError};
  for (Severity s : kAll) {
    if (name == SeverityName(s)) return s;
  }
  return Status::ParseError("unknown severity: " + std::string(name));
}

// True when `text` holds a digit run with more than nine significant
// digits, which sscanf("%d") may not read without overflowing an int.
bool HasOverlongDigitRun(std::string_view text) {
  size_t significant = 0;
  for (char c : text) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
      significant = 0;
    } else if (significant > 0 || c != '0') {
      if (++significant > 9) return true;
    }
  }
  return false;
}

}  // namespace

Result<TimeMs> ParseTime(std::string_view text) {
  const Status out_of_range = Status::ParseError(
      "timestamp field out of range: " + std::string(text));
  if (HasOverlongDigitRun(text)) return out_of_range;
  CivilTime c;
  int fields = std::sscanf(std::string(text).c_str(),
                           "%d-%d-%d %d:%d:%d.%d", &c.year, &c.month, &c.day,
                           &c.hour, &c.minute, &c.second, &c.millisecond);
  if (fields != 3 && fields != 6 && fields != 7) {
    return Status::ParseError("unrecognized timestamp: " + std::string(text));
  }
  if (c.month < 1 || c.month > 12 || c.day < 1 || c.day > 31 || c.hour > 23 ||
      c.minute > 59 || c.second > 59 || c.millisecond > 999 || c.hour < 0 ||
      c.minute < 0 || c.second < 0 || c.millisecond < 0) {
    return out_of_range;
  }
  TimeMs t = 0;
  if (__builtin_mul_overflow(DaysFromCivil(c.year, c.month, c.day),
                             kMillisPerDay, &t) ||
      __builtin_add_overflow(t, TimeFromCivil({.hour = c.hour,
                                               .minute = c.minute,
                                               .second = c.second,
                                               .millisecond = c.millisecond}),
                             &t)) {
    return out_of_range;
  }
  return t;
}

Result<LogRecord> Decode(std::string_view line, IngestErrorClass* error_class) {
  auto set_class = [error_class](IngestErrorClass value) {
    if (error_class != nullptr) *error_class = value;
  };
  auto fields_or = SplitEscaped(line);
  if (!fields_or.ok()) {
    set_class(IngestErrorClass::kBadEscape);
    return fields_or.status();
  }
  const std::vector<std::string>& fields = fields_or.value();
  if (fields.size() != 7) {
    set_class(IngestErrorClass::kFieldCount);
    return Status::ParseError("expected 7 fields, got " +
                              std::to_string(fields.size()));
  }
  LogRecord record;
  auto client = ParseTime(fields[0]);
  if (!client.ok()) {
    set_class(IngestErrorClass::kBadTimestamp);
    return client.status();
  }
  record.client_ts = client.value();
  auto server = ParseTime(fields[1]);
  if (!server.ok()) {
    set_class(IngestErrorClass::kBadTimestamp);
    return server.status();
  }
  record.server_ts = server.value();
  auto severity = ParseSeverity(fields[2]);
  if (!severity.ok()) {
    set_class(IngestErrorClass::kBadSeverity);
    return severity.status();
  }
  record.severity = severity.value();
  record.source = fields[3];
  record.host = fields[4];
  record.user = fields[5];
  record.message = fields[6];
  if (record.source.empty()) {
    set_class(IngestErrorClass::kEmptySource);
    return Status::ParseError("empty source field");
  }
  return record;
}

}  // namespace logmine::reference
