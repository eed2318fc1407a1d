#include "core/serialization.h"

#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <utility>

namespace logmine::core {
namespace {

// Guards against absurd counts from a corrupt-but-CRC-valid payload
// (only reachable with a hand-built file) so decoders never attempt a
// multi-gigabyte reserve.
Status CheckCount(uint64_t count, uint64_t limit, const char* what) {
  if (count > limit) {
    return Status::ParseError(std::string("implausible ") + what +
                              " count: " + std::to_string(count));
  }
  return Status::OK();
}

}  // namespace

void EncodeDependencyModel(const DependencyModel& model, SnapshotWriter* w) {
  w->PutU64(model.size());
  for (const NamePair& pair : model.pairs()) {
    w->PutString(pair.first);
    w->PutString(pair.second);
  }
}

Result<DependencyModel> DecodeDependencyModel(SectionCursor* c) {
  LOGMINE_ASSIGN_OR_RETURN(uint64_t count, c->ReadU64());
  LOGMINE_RETURN_IF_ERROR(CheckCount(count, 1u << 26, "dependency pair"));
  std::set<NamePair> pairs;
  for (uint64_t i = 0; i < count; ++i) {
    LOGMINE_ASSIGN_OR_RETURN(std::string first, c->ReadString());
    LOGMINE_ASSIGN_OR_RETURN(std::string second, c->ReadString());
    pairs.emplace(std::move(first), std::move(second));
  }
  return DependencyModel(std::move(pairs));
}

void EncodeSessionBuildStats(const SessionBuildStats& stats,
                             SnapshotWriter* w) {
  w->PutU64(stats.num_sessions);
  w->PutI64(stats.logs_considered);
  w->PutI64(stats.logs_with_context);
  w->PutI64(stats.logs_assigned);
  w->PutDouble(stats.assigned_fraction);
}

Result<SessionBuildStats> DecodeSessionBuildStats(SectionCursor* c) {
  SessionBuildStats stats;
  LOGMINE_ASSIGN_OR_RETURN(uint64_t num_sessions, c->ReadU64());
  stats.num_sessions = static_cast<size_t>(num_sessions);
  LOGMINE_ASSIGN_OR_RETURN(stats.logs_considered, c->ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(stats.logs_with_context, c->ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(stats.logs_assigned, c->ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(stats.assigned_fraction, c->ReadDouble());
  return stats;
}

void EncodeModelTracker(const ModelTracker& tracker, SnapshotWriter* w) {
  const ModelTrackerConfig& config = tracker.config();
  w->PutI64(config.confirm_after);
  w->PutI64(config.stale_after);
  w->PutI64(config.retire_after);
  w->PutI64(tracker.num_observations());
  w->PutU64(tracker.tracked().size());
  for (const auto& [pair, dep] : tracker.tracked()) {
    w->PutString(pair.first);
    w->PutString(pair.second);
    w->PutU32(static_cast<uint32_t>(dep.state));
    w->PutI64(dep.first_seen);
    w->PutI64(dep.last_seen);
    w->PutI64(dep.times_seen);
    w->PutI64(dep.confirm_streak);
  }
}

Result<ModelTracker> DecodeModelTracker(SectionCursor* c) {
  ModelTrackerConfig config;
  LOGMINE_ASSIGN_OR_RETURN(config.confirm_after, c->ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(config.stale_after, c->ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(config.retire_after, c->ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(int64_t observations, c->ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(uint64_t count, c->ReadU64());
  LOGMINE_RETURN_IF_ERROR(CheckCount(count, 1u << 26, "tracked dependency"));
  std::map<NamePair, TrackedDependency> tracked;
  for (uint64_t i = 0; i < count; ++i) {
    LOGMINE_ASSIGN_OR_RETURN(std::string first, c->ReadString());
    LOGMINE_ASSIGN_OR_RETURN(std::string second, c->ReadString());
    TrackedDependency dep;
    LOGMINE_ASSIGN_OR_RETURN(uint32_t state, c->ReadU32());
    if (state > static_cast<uint32_t>(DependencyState::kRetired)) {
      return Status::ParseError("tracked dependency state out of range: " +
                                std::to_string(state));
    }
    dep.state = static_cast<DependencyState>(state);
    LOGMINE_ASSIGN_OR_RETURN(dep.first_seen, c->ReadI64());
    LOGMINE_ASSIGN_OR_RETURN(dep.last_seen, c->ReadI64());
    LOGMINE_ASSIGN_OR_RETURN(dep.times_seen, c->ReadI64());
    LOGMINE_ASSIGN_OR_RETURN(dep.confirm_streak, c->ReadI64());
    tracked.emplace(NamePair(std::move(first), std::move(second)), dep);
  }
  return ModelTracker(config, std::move(tracked), observations);
}

void EncodeCoverageReport(const CoverageReport& report, SnapshotWriter* w) {
  w->PutU32(static_cast<uint32_t>(report.num_days));
  w->PutU32(static_cast<uint32_t>(report.num_ranges));
  w->PutU64(report.covered.size());
  for (uint8_t cell : report.covered) w->PutBool(cell != 0);
}

void EncodePartialModel(const PartialModel& partial, SnapshotWriter* w) {
  w->PutU32(static_cast<uint32_t>(partial.shard.day));
  w->PutU32(static_cast<uint32_t>(partial.shard.range_index));
  w->PutU32(static_cast<uint32_t>(partial.num_days));
  w->PutU32(static_cast<uint32_t>(partial.num_ranges));
  w->PutU64(partial.state_hash);
  EncodeDependencyModel(partial.model, w);
  w->PutString(partial.payload);
}

Result<PartialModel> DecodePartialModel(SectionCursor* c) {
  PartialModel partial;
  LOGMINE_ASSIGN_OR_RETURN(uint32_t day, c->ReadU32());
  LOGMINE_ASSIGN_OR_RETURN(uint32_t range_index, c->ReadU32());
  LOGMINE_ASSIGN_OR_RETURN(uint32_t num_days, c->ReadU32());
  LOGMINE_ASSIGN_OR_RETURN(uint32_t num_ranges, c->ReadU32());
  LOGMINE_ASSIGN_OR_RETURN(partial.state_hash, c->ReadU64());
  partial.shard.day = static_cast<int32_t>(day);
  partial.shard.range_index = static_cast<int32_t>(range_index);
  partial.num_days = static_cast<int32_t>(num_days);
  partial.num_ranges = static_cast<int32_t>(num_ranges);
  // Fields travel as u32; anything above INT32_MAX is a negative id or
  // dimension once cast, and no grid has one.
  if (partial.shard.day < 0 || partial.shard.range_index < 0 ||
      partial.num_days < 1 || partial.num_ranges < 1 ||
      partial.shard.day >= partial.num_days ||
      partial.shard.range_index >= partial.num_ranges) {
    return Status::ParseError(
        "partial model claims shard (" + std::to_string(day) + ", " +
        std::to_string(range_index) + ") of a " + std::to_string(num_days) +
        " x " + std::to_string(num_ranges) + " grid");
  }
  LOGMINE_ASSIGN_OR_RETURN(partial.model, DecodeDependencyModel(c));
  LOGMINE_ASSIGN_OR_RETURN(partial.payload, c->ReadString());
  return partial;
}

std::string PartialModelBytes(const PartialModel& partial) {
  SnapshotWriter w;
  w.BeginSection("partial");
  EncodePartialModel(partial, &w);
  w.EndSection();
  return std::move(w).Finish();
}

Result<PartialModel> ParsePartialModelBytes(std::string bytes) {
  LOGMINE_ASSIGN_OR_RETURN(SnapshotReader reader,
                           SnapshotReader::Parse(bytes));
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor cursor, reader.Section("partial"));
  LOGMINE_ASSIGN_OR_RETURN(PartialModel partial, DecodePartialModel(&cursor));
  LOGMINE_RETURN_IF_ERROR(cursor.ExpectEnd());
  return partial;
}

std::string MergedModelBytes(const MergedPartialModel& merged) {
  SnapshotWriter w;
  w.BeginSection("model");
  EncodeDependencyModel(merged.model, &w);
  w.EndSection();
  w.BeginSection("daily");
  w.PutU64(merged.daily.size());
  for (const DependencyModel& model : merged.daily) {
    EncodeDependencyModel(model, &w);
  }
  w.EndSection();
  w.BeginSection("coverage");
  EncodeCoverageReport(merged.coverage, &w);
  w.EndSection();
  return std::move(w).Finish();
}

void Fingerprinter::MixU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (8 * i)) & 0xFF;
    hash_ *= 0x100000001B3ULL;  // FNV-1a prime
  }
}

void Fingerprinter::MixDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  MixU64(bits);
}

void Fingerprinter::MixString(std::string_view s) {
  MixU64(s.size());
  for (unsigned char byte : s) {
    hash_ ^= byte;
    hash_ *= 0x100000001B3ULL;
  }
}

uint64_t ConfigFingerprint(const L1Config& config) {
  Fingerprinter fp;
  fp.MixString("L1");
  fp.MixI64(config.slot_length);
  fp.MixBool(config.adaptive_slots);
  fp.MixI64(config.adaptive.min_slot);
  fp.MixI64(config.adaptive.max_slot);
  fp.MixDouble(config.adaptive.alpha);
  fp.MixI64(config.adaptive.probe_bins);
  fp.MixI64(config.adaptive.min_events);
  fp.MixU64(static_cast<uint64_t>(config.baseline));
  fp.MixI64(config.baseline_jitter);
  fp.MixI64(config.minlogs);
  fp.MixDouble(config.th_pr);
  fp.MixDouble(config.th_s);
  fp.MixU64(config.test.sample_size);
  fp.MixDouble(config.test.level);
  fp.MixU64(config.seed);
  // Like the fields above (and unlike the perf-only knobs), the anchor
  // changes which random streams the test draws from, so two runs with
  // different anchors are not resumable into one checkpoint.
  fp.MixI64(config.salt_anchor);
  return fp.digest();
}

uint64_t ConfigFingerprint(const L2Config& config) {
  Fingerprinter fp;
  fp.MixString("L2");
  fp.MixI64(config.session.max_gap);
  fp.MixU64(config.session.min_logs);
  fp.MixI64(config.timeout);
  fp.MixU64(static_cast<uint64_t>(config.test));
  fp.MixDouble(config.alpha);
  fp.MixI64(config.min_cooccurrence);
  fp.MixDouble(config.min_cooccurrence_per_session);
  return fp.digest();
}

uint64_t ConfigFingerprint(const L3Config& config) {
  Fingerprinter fp;
  fp.MixString("L3");
  fp.MixU64(config.stop_patterns.size());
  for (const std::string& pattern : config.stop_patterns) {
    fp.MixString(pattern);
  }
  fp.MixBool(config.use_stop_patterns);
  fp.MixI64(config.min_citations);
  return fp.digest();
}

}  // namespace logmine::core
