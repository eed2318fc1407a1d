#include "simulation/corruptor.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/snapshot.h"
#include "util/string_util.h"

namespace logmine::sim {
namespace {

std::vector<std::string> SplitLines(std::string_view text) {
  std::vector<std::string> segments;
  size_t start = 0;
  for (;;) {
    const size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      segments.emplace_back(text.substr(start));
      return segments;
    }
    segments.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
}

bool IsBlank(std::string_view line) { return Trim(line).empty(); }

// Most recent index j < i whose current content is non-blank, or -1.
int64_t PreviousNonBlank(const std::vector<std::string>& lines, size_t i) {
  for (int64_t j = static_cast<int64_t>(i) - 1; j >= 0; --j) {
    if (!IsBlank(lines[static_cast<size_t>(j)])) return j;
  }
  return -1;
}

}  // namespace

std::string_view CorruptionKindName(CorruptionKind kind) {
  switch (kind) {
    case CorruptionKind::kTruncate:
      return "Truncate";
    case CorruptionKind::kMangleEscape:
      return "MangleEscape";
    case CorruptionKind::kGarbageBytes:
      return "GarbageBytes";
    case CorruptionKind::kReorder:
      return "Reorder";
    case CorruptionKind::kDuplicate:
      return "Duplicate";
    case CorruptionKind::kClockJump:
      return "ClockJump";
    case CorruptionKind::kBlankContext:
      return "BlankContext";
  }
  return "Unknown";
}

std::string CorruptionReport::ToString() const {
  std::string out = "corruptor: hit " + std::to_string(lines_corrupted) +
                    " of " + std::to_string(lines_total) + " lines";
  if (lines_corrupted > 0) {
    out += " (";
    bool first = true;
    for (size_t k = 0; k < kNumCorruptionKinds; ++k) {
      if (by_kind[k] == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += std::string(CorruptionKindName(static_cast<CorruptionKind>(k))) +
             "=" + std::to_string(by_kind[k]);
    }
    out += ")";
  }
  out += "\n  expected ingest: " + std::to_string(expected_records) +
         " records, " + std::to_string(expected_quarantined) + " quarantined";
  for (size_t c = 0; c < kNumIngestErrorClasses; ++c) {
    if (expected_by_class[c] == 0) continue;
    out += "\n    " +
           std::string(IngestErrorClassName(static_cast<IngestErrorClass>(c))) +
           "=" + std::to_string(expected_by_class[c]);
  }
  return out;
}

std::string CorruptCorpusText(std::string_view clean_text,
                              const CorruptorConfig& config, Rng* rng,
                              CorruptionReport* report) {
  std::vector<std::string> lines = SplitLines(clean_text);
  std::vector<int> extra_copies(lines.size(), 0);
  CorruptionReport local;
  CorruptionReport* tally = report != nullptr ? report : &local;
  *tally = CorruptionReport{};

  const std::vector<double> weights = {
      config.truncate_weight,     config.mangle_escape_weight,
      config.garbage_weight,      config.reorder_weight,
      config.duplicate_weight,    config.clock_jump_weight,
      config.blank_context_weight};
  double weight_sum = 0;
  for (double w : weights) weight_sum += w;

  for (size_t i = 0; i < lines.size(); ++i) {
    if (IsBlank(lines[i])) continue;
    ++tally->lines_total;
    if (config.rate <= 0.0 || weight_sum <= 0.0) continue;
    if (!rng->Bernoulli(config.rate)) continue;
    // Refuse to double-corrupt: a line that is already malformed in the
    // input is left alone, so every injected fault is attributable.
    auto clean = LineCodec::Decode(lines[i]);
    if (!clean.ok()) continue;

    const auto kind = static_cast<CorruptionKind>(rng->WeightedIndex(weights));
    std::string& line = lines[i];
    bool applied = true;
    switch (kind) {
      case CorruptionKind::kTruncate: {
        const auto new_len = static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(line.size()) - 1));
        line.resize(new_len);
        break;
      }
      case CorruptionKind::kMangleEscape: {
        if (rng->Bernoulli(0.5)) {
          line += '\\';  // dangling escape at end of line
        } else {
          const auto pos = static_cast<size_t>(
              rng->UniformInt(0, static_cast<int64_t>(line.size())));
          line.insert(pos, "\\q");  // unknown escape
        }
        break;
      }
      case CorruptionKind::kGarbageBytes: {
        const auto pos = static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(line.size()) - 1));
        const auto span =
            static_cast<size_t>(rng->UniformInt(1, 12));
        for (size_t p = pos; p < std::min(pos + span, line.size()); ++p) {
          char c;
          do {
            c = static_cast<char>(rng->UniformInt(1, 255));
          } while (c == '\n');
          line[p] = c;
        }
        break;
      }
      case CorruptionKind::kReorder: {
        const int64_t j = PreviousNonBlank(lines, i);
        if (j < 0) {
          applied = false;  // nothing earlier to swap with
          break;
        }
        std::swap(lines[static_cast<size_t>(j)], line);
        break;
      }
      case CorruptionKind::kDuplicate: {
        ++extra_copies[i];
        break;
      }
      case CorruptionKind::kClockJump: {
        LogRecord record = std::move(clean).value();
        const TimeMs magnitude =
            rng->UniformInt(1, std::max<TimeMs>(config.max_clock_jump_ms, 1));
        const TimeMs jump = rng->Bernoulli(0.5) ? magnitude : -magnitude;
        record.client_ts += jump;
        record.server_ts += jump;
        line = LineCodec::Encode(record);
        break;
      }
      case CorruptionKind::kBlankContext: {
        LogRecord record = std::move(clean).value();
        record.host.clear();
        record.user.clear();
        line = LineCodec::Encode(record);
        break;
      }
    }
    if (applied) {
      ++tally->lines_corrupted;
      ++tally->by_kind[static_cast<size_t>(kind)];
    }
  }

  // Reassemble (duplicates emitted right after their original) and
  // recompute the exact ingest outcome by re-decoding every output line:
  // the report's expectations are guaranteed to match what a
  // quarantine-mode DecodeAll will tally.
  std::string out;
  out.reserve(clean_text.size() + 64);
  bool first_segment = true;
  auto emit = [&](const std::string& segment) {
    if (!first_segment) out += '\n';
    first_segment = false;
    out += segment;
    if (IsBlank(segment)) return;
    IngestErrorClass error_class = IngestErrorClass::kFieldCount;
    if (LineCodec::Decode(segment, &error_class).ok()) {
      ++tally->expected_records;
    } else {
      ++tally->expected_quarantined;
      ++tally->expected_by_class[static_cast<size_t>(error_class)];
    }
  };
  for (size_t i = 0; i < lines.size(); ++i) {
    emit(lines[i]);
    for (int c = 0; c < extra_copies[i]; ++c) emit(lines[i]);
  }
  return out;
}

namespace {

// Container-structure walk (the layout of util/snapshot.h): returns the
// [offset, length) of `name`'s payload, or 0-length when absent. Walking
// the real section headers instead of string-searching the name keeps a
// message that *contains* "cdict" from fooling the fault injector.
std::pair<size_t, size_t> FindSectionPayload(std::string_view bytes,
                                             std::string_view name) {
  if (bytes.size() < 16) return {0, 0};
  size_t pos = 8;                          // past container magic+version
  const size_t footer_at = bytes.size() - 8;
  while (pos + 4 <= footer_at) {
    uint32_t name_len;
    std::memcpy(&name_len, bytes.data() + pos, 4);
    pos += 4;
    if (footer_at - pos < name_len + 8) return {0, 0};
    const std::string_view section_name = bytes.substr(pos, name_len);
    pos += name_len;
    uint64_t payload_len;
    std::memcpy(&payload_len, bytes.data() + pos, 8);
    pos += 8;
    if (payload_len > footer_at - pos) return {0, 0};
    if (section_name == name) {
      return {pos, static_cast<size_t>(payload_len)};
    }
    pos += static_cast<size_t>(payload_len);
  }
  return {0, 0};
}

}  // namespace

std::string_view ColumnarFaultKindName(ColumnarFaultKind kind) {
  switch (kind) {
    case ColumnarFaultKind::kCorruptDictionaryEntry:
      return "CorruptDictionaryEntry";
    case ColumnarFaultKind::kTruncatedColumnBlock:
      return "TruncatedColumnBlock";
  }
  return "Unknown";
}

Result<std::string> CorruptColumnarBytes(std::string_view clean_bytes,
                                         ColumnarFaultKind kind, Rng* rng,
                                         ColumnarFaultReport* report) {
  // Refuse to double-corrupt, mirroring CorruptCorpusText: the fault
  // must be the only defect, so the detection it triggers is
  // attributable.
  if (auto parsed = SnapshotReader::Parse(clean_bytes);
      !parsed.ok()) {
    return Status::InvalidArgument("input is not a clean columnar corpus: " +
                                   parsed.status().message());
  }
  ColumnarFaultReport local;
  ColumnarFaultReport* out_report = report != nullptr ? report : &local;
  *out_report = ColumnarFaultReport{};
  out_report->kind = kind;
  std::string out(clean_bytes);
  switch (kind) {
    case ColumnarFaultKind::kCorruptDictionaryEntry: {
      const auto [offset, length] = FindSectionPayload(out, "cdict");
      if (length == 0) {
        return Status::InvalidArgument(
            "columnar corpus has no dictionary section");
      }
      // Flip a short span inside the dictionary payload. The container
      // CRC no longer matches, so a read fails up front instead of
      // serving records under a damaged source/host/user name.
      const auto span = static_cast<size_t>(
          rng->UniformInt(1, static_cast<int64_t>(std::min<size_t>(length, 4))));
      const auto at = offset + static_cast<size_t>(rng->UniformInt(
                                   0, static_cast<int64_t>(length - span)));
      for (size_t p = at; p < at + span; ++p) {
        out[p] = static_cast<char>(out[p] ^ 0x5A);
      }
      out_report->offset = at;
      out_report->bytes_affected = span;
      break;
    }
    case ColumnarFaultKind::kTruncatedColumnBlock: {
      const auto [offset, length] = FindSectionPayload(out, "ctime");
      if (length == 0) {
        return Status::InvalidArgument(
            "columnar corpus has no time column section");
      }
      // Cut the file inside the first column block: everything from the
      // footer back into the timestamp column is gone, the footer magic
      // with it — exactly what a torn write or truncated device yields.
      const auto cut = offset + static_cast<size_t>(rng->UniformInt(
                                    0, static_cast<int64_t>(length) - 1));
      out_report->offset = cut;
      out_report->bytes_affected = out.size() - cut;
      out.resize(cut);
      break;
    }
  }
  return out;
}

Status CorruptColumnarFile(const std::string& input_path,
                           const std::string& output_path,
                           ColumnarFaultKind kind, Rng* rng,
                           ColumnarFaultReport* report) {
  std::ifstream in(input_path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open for reading: " + input_path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  LOGMINE_ASSIGN_OR_RETURN(
      std::string corrupted,
      CorruptColumnarBytes(buffer.str(), kind, rng, report));
  std::ofstream out(output_path, std::ios::trunc | std::ios::binary);
  if (!out) {
    return Status::InvalidArgument("cannot open for writing: " + output_path);
  }
  out << corrupted;
  out.flush();
  if (!out) return Status::Internal("write failed: " + output_path);
  return Status::OK();
}

Status CorruptCorpusFile(const std::string& input_path,
                         const std::string& output_path,
                         const CorruptorConfig& config, Rng* rng,
                         CorruptionReport* report) {
  std::ifstream in(input_path);
  if (!in) {
    return Status::NotFound("cannot open for reading: " + input_path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string corrupted =
      CorruptCorpusText(buffer.str(), config, rng, report);
  std::ofstream out(output_path, std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open for writing: " + output_path);
  }
  out << corrupted;
  out.flush();
  if (!out) return Status::Internal("write failed: " + output_path);
  return Status::OK();
}

}  // namespace logmine::sim
