#include "log/codec.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstring>

#include "log/name_interner.h"
#include "obs/obs.h"
#include "util/executor.h"
#include "util/string_util.h"

namespace logmine {
namespace {

void AppendEscaped(std::string_view field, std::string* out) {
  for (char c : field) {
    switch (c) {
      case '|':
        *out += "\\|";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
}

// A line split on unescaped '|'. A line with no backslash is split into
// views of itself; a line with one is unescaped into the caller's
// scratch buffer, reserved to the line's length first so that appends
// never move the views taken earlier.
struct LineFields {
  std::array<std::string_view, 7> field;
  size_t count = 0;  ///< fields on the line, including any past the 7th
};

Status ScanFields(std::string_view line, std::string* scratch,
                  LineFields* out) {
  out->count = 0;
  auto emit = [out](std::string_view field) {
    if (out->count < out->field.size()) out->field[out->count] = field;
    ++out->count;
  };
  if (line.empty()) {
    emit(line);
    return Status::OK();
  }
  const char* p = line.data();
  const char* const end = p + line.size();
  if (std::memchr(p, '\\', line.size()) == nullptr) {
    for (;;) {
      const auto* bar =
          static_cast<const char*>(std::memchr(p, '|', end - p));
      if (bar == nullptr) {
        emit(std::string_view(p, end - p));
        return Status::OK();
      }
      emit(std::string_view(p, bar - p));
      p = bar + 1;
    }
  }
  scratch->clear();
  scratch->reserve(line.size());
  size_t field_begin = 0;
  auto emit_scratch = [&] {
    emit(std::string_view(*scratch).substr(field_begin));
    field_begin = scratch->size();
  };
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\') {
      if (i + 1 >= line.size()) {
        return Status::ParseError("dangling escape at end of line");
      }
      const char next = line[++i];
      switch (next) {
        case '|':
          *scratch += '|';
          break;
        case '\\':
          *scratch += '\\';
          break;
        case 'n':
          *scratch += '\n';
          break;
        default:
          return Status::ParseError(std::string("unknown escape: \\") + next);
      }
    } else if (c == '|') {
      emit_scratch();
    } else {
      *scratch += c;
    }
  }
  emit_scratch();
  return Status::OK();
}

// A timestamp column's memory of its last canonical stamp: the 17-byte
// "YYYY-MM-DD hh:mm:" prefix of the last 23-byte "YYYY-MM-DD
// hh:mm:ss.mmm" stamp that `ParseTime` accepted, and that minute's time.
// Lines arrive nearly in time order, so most stamps share the prefix of
// the one before and only their "ss.mmm" needs reading. Anything else —
// another minute, another length or layout, a suffix the fast path
// cannot vouch for — goes through `ParseTime`, so the value or the error
// is always `ParseTime`'s.
class MinuteCache {
 public:
  Result<TimeMs> Parse(std::string_view text) {
    if (text.size() == kStampSize && primed_ &&
        std::memcmp(text.data(), prefix_.data(), kPrefixSize) == 0) {
      if (const int64_t into = MillisIntoMinute(text); into >= 0) {
        return minute_ + into;
      }
    }
    Result<TimeMs> parsed = ParseTime(text);
    if (parsed.ok() && text.size() == kStampSize && IsCanonicalPrefix(text)) {
      if (const int64_t into = MillisIntoMinute(text); into >= 0) {
        std::memcpy(prefix_.data(), text.data(), kPrefixSize);
        minute_ = parsed.value() - into;
        primed_ = true;
      }
    }
    return parsed;
  }

 private:
  static constexpr size_t kStampSize = 23;
  static constexpr size_t kPrefixSize = 17;

  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }

  // "YYYY-MM-DD hh:mm:": four-digit year, two-digit fields, and the
  // separators FormatTime writes, so the prefix pins every field.
  static bool IsCanonicalPrefix(std::string_view text) {
    static constexpr char kLayout[kPrefixSize + 1] = "0000-00-00 00:00:";
    for (size_t i = 0; i < kPrefixSize; ++i) {
      if (kLayout[i] == '0' ? !IsDigit(text[i]) : text[i] != kLayout[i]) {
        return false;
      }
    }
    return true;
  }

  // The "ss.mmm" after the prefix as milliseconds into the minute, or -1
  // unless it is two digits of at most 59, a '.', and three digits.
  static int64_t MillisIntoMinute(std::string_view text) {
    const char* s = text.data() + kPrefixSize;
    if (!IsDigit(s[0]) || !IsDigit(s[1]) || s[2] != '.' || !IsDigit(s[3]) ||
        !IsDigit(s[4]) || !IsDigit(s[5])) {
      return -1;
    }
    const int64_t second = (s[0] - '0') * 10 + (s[1] - '0');
    if (second > 59) return -1;
    return second * kMillisPerSecond + (s[3] - '0') * 100 +
           (s[4] - '0') * 10 + (s[5] - '0');
  }

  std::array<char, kPrefixSize> prefix_{};
  bool primed_ = false;
  TimeMs minute_ = 0;
};

// What the line decoder carries from one line to the next: the minute
// of each timestamp column. A fresh one makes every stamp a full parse.
struct LineState {
  MinuteCache client;
  MinuteCache server;
  std::string scratch;  ///< unescaped fields of the current line
};

// The split of a line that opens with two 23-byte stamps: true when the
// line holds no backslash and exactly six '|', of which the first two
// are bytes 23 and 47, and both stamps parse. Then `fields` and the two
// times are exactly what `ScanFields` and the stamp parses would give,
// though the first 48 bytes were never searched: a stamp that parses is
// digits and separators only, so it hides no '|' or '\'. Anything else
// is left to the general path, which finds the line's first fault.
bool SplitCanonical(std::string_view line, LineState* state,
                    LineFields* fields, TimeMs* client_ts,
                    TimeMs* server_ts) {
  constexpr size_t kStamp = 23;
  constexpr size_t kRest = 2 * kStamp + 2;
  if (line.size() < kRest || line[kStamp] != '|' ||
      line[kRest - 1] != '|') {
    return false;
  }
  const char* p = line.data() + kRest;
  const char* const end = line.data() + line.size();
  if (std::memchr(p, '\\', end - p) != nullptr) return false;
  fields->field[0] = line.substr(0, kStamp);
  fields->field[1] = line.substr(kStamp + 1, kStamp);
  for (size_t f = 2; f < 6; ++f) {
    const auto* bar = static_cast<const char*>(std::memchr(p, '|', end - p));
    if (bar == nullptr) return false;
    fields->field[f] = std::string_view(p, bar - p);
    p = bar + 1;
  }
  if (std::memchr(p, '|', end - p) != nullptr) return false;
  fields->field[6] = std::string_view(p, end - p);
  fields->count = 7;
  Result<TimeMs> client = state->client.Parse(fields->field[0]);
  if (!client.ok()) return false;
  Result<TimeMs> server = state->server.Parse(fields->field[1]);
  if (!server.ok()) return false;
  *client_ts = client.value();
  *server_ts = server.value();
  return true;
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

// One line decoded into views of the line or of the scratch buffer;
// nothing is copied until the caller keeps it.
struct DecodedLine {
  TimeMs client_ts = 0;
  TimeMs server_ts = 0;
  Severity severity = Severity::kInfo;
  std::string_view source;
  std::string_view host;
  std::string_view user;
  std::string_view message;
};

// The single-line decoder behind both `LineCodec::Decode` and the bulk
// decode. Checks run in a fixed order — escapes, field count, client and
// server timestamp, severity, empty source — and the first failure sets
// `*error_class` and is returned. A line `SplitCanonical` takes has
// passed the first four.
Status DecodeLine(std::string_view line, LineState* state, DecodedLine* out,
                  IngestErrorClass* error_class) {
  LineFields fields;
  if (!SplitCanonical(line, state, &fields, &out->client_ts,
                      &out->server_ts)) {
    if (Status s = ScanFields(line, &state->scratch, &fields); !s.ok()) {
      *error_class = IngestErrorClass::kBadEscape;
      return s;
    }
    if (fields.count != 7) {
      *error_class = IngestErrorClass::kFieldCount;
      return Status::ParseError("expected 7 fields, got " +
                                std::to_string(fields.count));
    }
    auto client = state->client.Parse(fields.field[0]);
    if (!client.ok()) {
      *error_class = IngestErrorClass::kBadTimestamp;
      return client.status();
    }
    auto server = state->server.Parse(fields.field[1]);
    if (!server.ok()) {
      *error_class = IngestErrorClass::kBadTimestamp;
      return server.status();
    }
    out->client_ts = client.value();
    out->server_ts = server.value();
  }
  auto severity = ParseSeverity(fields.field[2]);
  if (!severity.ok()) {
    *error_class = IngestErrorClass::kBadSeverity;
    return severity.status();
  }
  if (fields.field[3].empty()) {
    *error_class = IngestErrorClass::kEmptySource;
    return Status::ParseError("empty source field");
  }
  out->severity = severity.value();
  out->source = fields.field[3];
  out->host = fields.field[4];
  out->user = fields.field[5];
  out->message = fields.field[6];
  return Status::OK();
}

// The per-class quarantine metrics sit adjacent in the Metric enum, in
// IngestErrorClass order, so class c maps to kIngestQuarantinedBadEscape+c.
static_assert(
    static_cast<uint32_t>(obs::Metric::kIngestQuarantinedTruncatedLine) -
        static_cast<uint32_t>(obs::Metric::kIngestQuarantinedBadEscape) ==
    kNumIngestErrorClasses - 1);

// Publishes one call's tally into the ambient metrics registry.
void EmitIngestMetrics(const IngestStats& tally, size_t bytes) {
  obs::ObsContext* ctx = obs::Global();
  if (ctx == nullptr) return;
  obs::MetricsRegistry& metrics = ctx->metrics();
  metrics.Add(obs::Metric::kIngestLinesTotal,
              static_cast<int64_t>(tally.lines_total));
  metrics.Add(obs::Metric::kIngestRecordsDecoded,
              static_cast<int64_t>(tally.records_decoded));
  metrics.Add(obs::Metric::kIngestLinesQuarantined,
              static_cast<int64_t>(tally.lines_quarantined));
  metrics.Add(obs::Metric::kIngestBytesDecoded, static_cast<int64_t>(bytes));
  for (size_t c = 0; c < kNumIngestErrorClasses; ++c) {
    if (tally.by_class[c] == 0) continue;
    metrics.Add(static_cast<obs::Metric>(
                    static_cast<uint32_t>(
                        obs::Metric::kIngestQuarantinedBadEscape) +
                    c),
                static_cast<int64_t>(tally.by_class[c]));
  }
}

}  // namespace

std::string_view IngestErrorClassName(IngestErrorClass error_class) {
  switch (error_class) {
    case IngestErrorClass::kBadEscape:
      return "BadEscape";
    case IngestErrorClass::kFieldCount:
      return "FieldCount";
    case IngestErrorClass::kBadTimestamp:
      return "BadTimestamp";
    case IngestErrorClass::kBadSeverity:
      return "BadSeverity";
    case IngestErrorClass::kEmptySource:
      return "EmptySource";
    case IngestErrorClass::kTruncatedLine:
      return "TruncatedLine";
  }
  return "Unknown";
}

double IngestStats::bad_fraction() const {
  if (lines_total == 0) return 0.0;
  return static_cast<double>(lines_quarantined) /
         static_cast<double>(lines_total);
}

void IngestStats::MergeFrom(const IngestStats& other, size_t max_samples) {
  lines_total += other.lines_total;
  records_decoded += other.records_decoded;
  lines_quarantined += other.lines_quarantined;
  for (size_t c = 0; c < kNumIngestErrorClasses; ++c) {
    by_class[c] += other.by_class[c];
  }
  for (const QuarantinedLine& sample : other.samples) {
    if (samples.size() >= max_samples) break;
    samples.push_back(sample);
  }
}

std::string IngestStats::ToString() const {
  std::string out = "ingest: " + std::to_string(records_decoded) +
                    " decoded, " + std::to_string(lines_quarantined) +
                    " quarantined of " + std::to_string(lines_total) +
                    " lines";
  if (lines_quarantined > 0) {
    out += " (";
    bool first = true;
    for (size_t c = 0; c < kNumIngestErrorClasses; ++c) {
      if (by_class[c] == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += std::string(
                 IngestErrorClassName(static_cast<IngestErrorClass>(c))) +
             "=" + std::to_string(by_class[c]);
    }
    out += ")";
  }
  for (const QuarantinedLine& sample : samples) {
    out += "\n  line " + std::to_string(sample.line_number) + " (byte " +
           std::to_string(sample.byte_offset) + ") [" +
           std::string(IngestErrorClassName(sample.error_class)) +
           "]: " + sample.error;
  }
  return out;
}

std::string LineCodec::Encode(const LogRecord& record) {
  std::string out;
  out.reserve(64 + record.message.size());
  out += FormatTime(record.client_ts);
  out += '|';
  out += FormatTime(record.server_ts);
  out += '|';
  out += SeverityName(record.severity);
  out += '|';
  AppendEscaped(record.source, &out);
  out += '|';
  AppendEscaped(record.host, &out);
  out += '|';
  AppendEscaped(record.user, &out);
  out += '|';
  AppendEscaped(record.message, &out);
  return out;
}

Result<LogRecord> LineCodec::Decode(std::string_view line) {
  return Decode(line, nullptr);
}

Result<LogRecord> LineCodec::Decode(std::string_view line,
                                    IngestErrorClass* error_class) {
  LineState state;
  DecodedLine decoded;
  IngestErrorClass line_class = IngestErrorClass::kFieldCount;
  if (Status s = DecodeLine(line, &state, &decoded, &line_class); !s.ok()) {
    if (error_class != nullptr) *error_class = line_class;
    return s;
  }
  return LogRecord{decoded.client_ts,           decoded.server_ts,
                   decoded.severity,            std::string(decoded.source),
                   std::string(decoded.host),   std::string(decoded.user),
                   std::string(decoded.message)};
}

std::string LineCodec::EncodeAll(const std::vector<LogRecord>& records) {
  std::string out;
  for (const LogRecord& record : records) {
    out += Encode(record);
    out += '\n';
  }
  return out;
}

Result<LogStore> LineCodec::DecodeAll(std::string_view text) {
  return DecodeAll(text, DecodeOptions{}, nullptr);
}

namespace {

// One chunk's decode output: store columns with chunk-local dictionary
// ids, plus chunk-local line numbers and byte offsets; the merge below
// rebases both into global coordinates. Keeping everything per-chunk
// (including the fail-fast failure, recorded rather than returned early)
// is what makes the merged result byte-identical to the serial decode
// for any chunk count.
struct ChunkOutcome {
  LogStore::Columns columns;
  IngestStats tally;
  /// Physical lines the chunk spans (newline-terminated lines, plus an
  /// unterminated final line) — the rebase amount for the next chunk's
  /// line numbers.
  size_t physical_lines = 0;
  bool failed = false;       ///< kFailFast hit a malformed line
  size_t fail_line = 0;      ///< 1-based, chunk-local
  size_t fail_offset = 0;    ///< chunk-local byte offset
  std::string fail_message;  ///< the per-line decode error
};

void ReserveColumns(size_t records, size_t message_bytes,
                    LogStore::Columns* columns) {
  columns->client_ts.reserve(records);
  columns->server_ts.reserve(records);
  columns->severity.reserve(records);
  columns->source_ids.reserve(records);
  columns->host_ids.reserve(records);
  columns->user_ids.reserve(records);
  columns->message_ends.reserve(records);
  columns->message_data.reserve(message_bytes);
}

// Reserves the columns for the records in `bytes` of text, a count
// extrapolated from the newlines in the first few KiB of `sample`, with
// an eighth to spare, and the message arena for all `bytes` (messages
// are a subset of them). The reservation costs address space only:
// pages are touched as records land, and each once, where growing by
// doubling would copy them.
void ReserveForText(std::string_view sample, size_t bytes,
                    LogStore::Columns* columns) {
  constexpr size_t kSampleBytes = 8192;
  sample = sample.substr(0, kSampleBytes);
  if (sample.empty()) return;
  const auto newlines =
      static_cast<size_t>(std::count(sample.begin(), sample.end(), '\n'));
  ReserveColumns((newlines + newlines / 8 + 1) * bytes / sample.size(),
                 bytes, columns);
}

// The decode loop proper over one chunk: one pass per line that finds
// the fields, parses the timestamps and severity, and interns source,
// host and user straight into the chunk's columns, reserved for
// `reserve_bytes` of text (the whole buffer for chunk 0, which the merge
// extends). `allow_truncated_tail` is the lenient-tail option scoped to
// the chunk holding the buffer's final bytes — interior chunks always
// end at a newline so the condition could not fire there anyway, but
// scoping it keeps that an invariant rather than a coincidence. No
// budget judgement here: the budget is a whole-buffer property, applied
// once after the merge.
void DecodeChunk(std::string_view text, size_t reserve_bytes,
                 const DecodeOptions& options, bool allow_truncated_tail,
                 ChunkOutcome* out) {
  LogStore::Columns& columns = out->columns;
  ReserveForText(text, reserve_bytes, &columns);
  NameInterner sources;
  NameInterner hosts;
  NameInterner users;
  LineState state;
  IngestStats* tally = &out->tally;
  size_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    const void* newline =
        start < text.size()
            ? std::memchr(text.data() + start, '\n', text.size() - start)
            : nullptr;
    const size_t end =
        newline == nullptr
            ? text.size()
            : static_cast<size_t>(static_cast<const char*>(newline) -
                                  text.data());
    std::string_view line = text.substr(start, end - start);
    // The empty view after a trailing newline is an artifact of the
    // scan, not a physical line; it must not shift later chunks' line
    // numbers.
    if (start < text.size()) ++out->physical_lines;
    ++line_no;
    // A line is blank when Trim empties it; nearly every line shows
    // that it is not on its first byte.
    const bool blank =
        line.empty() || (std::isspace(static_cast<unsigned char>(line[0])) &&
                         Trim(line).empty());
    if (!blank) {
      ++tally->lines_total;
      IngestErrorClass error_class = IngestErrorClass::kFieldCount;
      DecodedLine decoded;
      Status status = DecodeLine(line, &state, &decoded, &error_class);
      if (status.ok()) {
        ++tally->records_decoded;
        columns.client_ts.push_back(decoded.client_ts);
        columns.server_ts.push_back(decoded.server_ts);
        columns.severity.push_back(decoded.severity);
        columns.source_ids.push_back(sources.Intern(decoded.source));
        columns.host_ids.push_back(decoded.host.empty()
                                       ? LogStore::kNoHost
                                       : hosts.Intern(decoded.host));
        columns.user_ids.push_back(decoded.user.empty()
                                       ? LogStore::kNoUser
                                       : users.Intern(decoded.user));
        columns.message_data.append(decoded.message);
        columns.message_ends.push_back(columns.message_data.size());
      } else {
        // A malformed line that runs to the end of the buffer with no
        // terminating newline is, under the lenient-tail option,
        // presumed cut off mid-write: it gets its own class and is
        // quarantined under either policy.
        const bool truncated_tail =
            allow_truncated_tail && end == text.size();
        if (truncated_tail) error_class = IngestErrorClass::kTruncatedLine;
        ++tally->lines_quarantined;
        ++tally->by_class[static_cast<size_t>(error_class)];
        if (tally->samples.size() < options.max_samples) {
          tally->samples.push_back({line_no, start, error_class,
                                    status.message(), std::string(line)});
        }
        if (options.policy == DecodePolicy::kFailFast && !truncated_tail) {
          out->failed = true;
          out->fail_line = line_no;
          out->fail_offset = start;
          out->fail_message = status.message();
          return;
        }
      }
    }
    if (end == text.size()) break;
    start = end + 1;
  }
  columns.source_names = sources.TakeNames();
  columns.host_names = hosts.TakeNames();
  columns.user_names = users.TakeNames();
}

// Appends chunks 1.. to chunk 0's columns in index order, remapping
// their ids to global ones. Chunk 0's ids already are global: a serial
// scan meets its names first, in the same order. Each later chunk's
// names get their global ids through an `IdRemap` in the order its
// records first use them — its own first-seen order — so ids and
// dictionaries come out identical to a one-chunk decode. Chunk 0 was
// reserved for the whole buffer, so it is extended in place, and each
// later chunk's columns are freed once copied.
LogStore::Columns MergeColumns(std::vector<ChunkOutcome>* outcomes) {
  LogStore::Columns merged = std::move((*outcomes)[0].columns);
  if (outcomes->size() == 1) return merged;
  size_t records = merged.client_ts.size();
  size_t message_bytes = merged.message_data.size();
  for (size_t i = 1; i < outcomes->size(); ++i) {
    records += (*outcomes)[i].columns.client_ts.size();
    message_bytes += (*outcomes)[i].columns.message_data.size();
  }
  ReserveColumns(records, message_bytes, &merged);
  auto seeded = [](std::vector<std::string>* names) {
    NameInterner interner;
    for (const std::string& name : *names) interner.Intern(name);
    names->clear();
    return interner;
  };
  NameInterner sources = seeded(&merged.source_names);
  NameInterner hosts = seeded(&merged.host_names);
  NameInterner users = seeded(&merged.user_names);
  // kNoHost and kNoUser pass through; no source id ever equals them.
  static_assert(LogStore::kNoHost == LogStore::kNoUser);
  auto append_remapped = [](NameInterner* interner,
                            const std::vector<std::string>& names,
                            const std::vector<uint32_t>& ids,
                            std::vector<uint32_t>* out) {
    IdRemap remap(names.size(), interner);
    for (uint32_t id : ids) {
      out->push_back(id == LogStore::kNoHost ? id : remap.Map(id, names[id]));
    }
  };
  for (size_t i = 1; i < outcomes->size(); ++i) {
    LogStore::Columns chunk = std::move((*outcomes)[i].columns);
    merged.client_ts.insert(merged.client_ts.end(), chunk.client_ts.begin(),
                            chunk.client_ts.end());
    merged.server_ts.insert(merged.server_ts.end(), chunk.server_ts.begin(),
                            chunk.server_ts.end());
    merged.severity.insert(merged.severity.end(), chunk.severity.begin(),
                           chunk.severity.end());
    append_remapped(&sources, chunk.source_names, chunk.source_ids,
                    &merged.source_ids);
    append_remapped(&hosts, chunk.host_names, chunk.host_ids,
                    &merged.host_ids);
    append_remapped(&users, chunk.user_names, chunk.user_ids,
                    &merged.user_ids);
    const size_t arena_base = merged.message_data.size();
    merged.message_data += chunk.message_data;
    for (size_t end : chunk.message_ends) {
      merged.message_ends.push_back(arena_base + end);
    }
  }
  merged.source_names = sources.TakeNames();
  merged.host_names = hosts.TakeNames();
  merged.user_names = users.TakeNames();
  return merged;
}

// Splits `text` into at most `target` pieces whose boundaries sit just
// past a newline, so every line lives wholly inside one chunk. The
// boundaries depend only on (text, target) — never on scheduling — which
// is one half of what makes the parallel decode deterministic (the other
// half is the in-order merge below).
std::vector<std::string_view> SplitAtLineBoundaries(std::string_view text,
                                                    size_t target) {
  std::vector<std::string_view> chunks;
  size_t start = 0;
  for (size_t i = 1; i < target && start < text.size(); ++i) {
    const size_t nominal = text.size() * i / target;
    if (nominal <= start) continue;  // a long line swallowed this boundary
    const size_t nl = text.find('\n', nominal);
    if (nl == std::string_view::npos) break;  // tail is one final chunk
    chunks.push_back(text.substr(start, nl + 1 - start));
    start = nl + 1;
  }
  chunks.push_back(text.substr(start));
  return chunks;
}

size_t EffectiveChunks(const DecodeOptions& options, size_t text_size) {
  if (options.num_chunks == 1) return 1;
  if (options.num_chunks > 1) return static_cast<size_t>(options.num_chunks);
  // Auto: one chunk per pool thread (workers + the calling thread),
  // floored so each chunk spans enough bytes to amortize the fan-out.
  constexpr size_t kMinChunkBytes = 64 * 1024;
  const size_t pool =
      static_cast<size_t>(Executor::Shared().num_workers()) + 1;
  const size_t cap = std::max<size_t>(size_t{1}, text_size / kMinChunkBytes);
  return std::min(pool, cap);
}

// Splits, decodes every chunk (concurrently when more than one), and
// merges outcomes in index order into `tally` / the returned store.
// The merged store, stats, samples (with rebased line numbers and byte
// offsets), budget judgement and fail-fast error are identical to a
// single-chunk decode of the same buffer: in fail-fast mode every chunk
// before the first failed one is clean, so merging clean chunks in order
// and stopping at the failure reproduces the serial scan's stats exactly.
Result<LogStore> DecodeAllImpl(std::string_view text,
                               const DecodeOptions& options,
                               IngestStats* tally) {
  const size_t target = EffectiveChunks(options, text.size());
  const std::vector<std::string_view> chunks =
      SplitAtLineBoundaries(text, target);
  std::vector<ChunkOutcome> outcomes(chunks.size());
  if (chunks.size() == 1) {
    DecodeChunk(chunks[0], chunks[0].size(), options,
                options.lenient_truncated_tail, &outcomes[0]);
  } else {
    obs::Count(obs::Metric::kIngestParallelDecodes);
    Executor::Shared().ParallelFor(chunks.size(), [&](size_t i) {
      DecodeChunk(chunks[i], i == 0 ? text.size() : chunks[i].size(), options,
                  options.lenient_truncated_tail && i + 1 == chunks.size(),
                  &outcomes[i]);
    });
  }
  obs::Count(obs::Metric::kIngestChunksDecoded,
             static_cast<int64_t>(chunks.size()));

  size_t line_base = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ChunkOutcome& outcome = outcomes[i];
    const size_t byte_base =
        static_cast<size_t>(chunks[i].data() - text.data());
    for (QuarantinedLine& sample : outcome.tally.samples) {
      sample.line_number += line_base;
      sample.byte_offset += byte_base;
    }
    tally->MergeFrom(outcome.tally, options.max_samples);
    if (outcome.failed) {
      // Later chunks' work (if any ran) is discarded unmerged, exactly
      // as if the serial scan had stopped at this line.
      return Status::ParseError(
          "line " + std::to_string(line_base + outcome.fail_line) +
          " (byte " + std::to_string(byte_base + outcome.fail_offset) +
          "): " + outcome.fail_message);
    }
    line_base += outcome.physical_lines;
  }

  // The budget judges *interior* damage; a lenient truncated tail is
  // expected operational wear (at most one line) and never tips a file
  // over it.
  const size_t budget_bad =
      tally->lines_quarantined -
      tally->by_class[static_cast<size_t>(IngestErrorClass::kTruncatedLine)];
  const double budget_fraction =
      tally->lines_total == 0
          ? 0.0
          : static_cast<double>(budget_bad) /
                static_cast<double>(tally->lines_total);
  if (budget_fraction > options.max_bad_fraction && budget_bad > 0) {
    return Status::ParseError(
        "quarantined " + std::to_string(budget_bad) + " of " +
        std::to_string(tally->lines_total) +
        " lines; bad fraction exceeds budget " +
        std::to_string(options.max_bad_fraction));
  }
  return LogStore::FromColumns(MergeColumns(&outcomes));
}

}  // namespace

Result<LogStore> LineCodec::DecodeAll(std::string_view text,
                                      const DecodeOptions& options,
                                      IngestStats* stats) {
  LOGMINE_SPAN_GLOBAL("ingest/decode_all", obs::Metric::kIngestDecodeNs);
  IngestStats local;
  auto result = DecodeAllImpl(text, options, &local);
  EmitIngestMetrics(local, text.size());
  if (stats != nullptr) stats->MergeFrom(local, options.max_samples);
  return result;
}

}  // namespace logmine
