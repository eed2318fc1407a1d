#ifndef LOGMINE_CORE_SERIALIZATION_H_
#define LOGMINE_CORE_SERIALIZATION_H_

#include <cstdint>
#include <string_view>

#include "core/dependency.h"
#include "core/l1_activity_miner.h"
#include "core/l2_cooccurrence_miner.h"
#include "core/l2_session_builder.h"
#include "core/l3_text_miner.h"
#include "core/model_tracker.h"
#include "core/partial_model.h"
#include "util/result.h"
#include "util/snapshot.h"

namespace logmine::core {

/// Binary serialization of persisted mining state — the per-cell partial
/// models a sweep resumes from, the streaming service's tracker and
/// models, and the miner configs they ran under. Encoders append to an
/// open SnapshotWriter section; decoders consume from a SectionCursor
/// and fail with ParseError on any malformed payload, so a corrupt file
/// can never load as silently wrong state.
///
/// Every Decode(Encode(x)) round-trips to an equal value — the property
/// the crash-recovery tests build their byte-identity assertion on.

void EncodeDependencyModel(const DependencyModel& model, SnapshotWriter* w);
Result<DependencyModel> DecodeDependencyModel(SectionCursor* c);

void EncodeSessionBuildStats(const SessionBuildStats& stats,
                             SnapshotWriter* w);
Result<SessionBuildStats> DecodeSessionBuildStats(SectionCursor* c);

/// Tracker state embeds its config: a restored tracker continues under
/// the exact hysteresis thresholds it was built with.
void EncodeModelTracker(const ModelTracker& tracker, SnapshotWriter* w);
Result<ModelTracker> DecodeModelTracker(SectionCursor* c);

void EncodeCoverageReport(const CoverageReport& report, SnapshotWriter* w);

void EncodePartialModel(const PartialModel& partial, SnapshotWriter* w);
Result<PartialModel> DecodePartialModel(SectionCursor* c);

/// The complete snapshot container (one "partial" section) a shard task
/// round-trips through — and, when a partial directory is configured,
/// the exact bytes it persists. Validating these bytes before accepting
/// a shard's result is what turns an injected (or real) corruption into
/// a retryable failure instead of silently wrong merged state.
std::string PartialModelBytes(const PartialModel& partial);
Result<PartialModel> ParsePartialModelBytes(std::string bytes);

/// Canonical serialized form of a merged, coverage-annotated model
/// (sections "model", "daily", "coverage") — the byte string the chaos
/// harness compares for its byte-identity and coverage-accounting
/// assertions. Encode-only: nothing reloads it.
std::string MergedModelBytes(const MergedPartialModel& merged);

/// Order-sensitive FNV-1a accumulator for config fingerprints.
class Fingerprinter {
 public:
  void MixU64(uint64_t v);
  void MixI64(int64_t v) { MixU64(static_cast<uint64_t>(v)); }
  void MixBool(bool v) { MixU64(v ? 1 : 0); }
  void MixDouble(double v);
  void MixString(std::string_view s);
  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
};

/// Fingerprints of every result-relevant config field. A resumed run
/// compares the stored fingerprint against its own config and refuses
/// to mix state mined under different parameters. `num_threads` is
/// deliberately excluded: results are bit-identical for any thread
/// count (the PR 1 determinism contract), so a resume may change
/// parallelism freely.
uint64_t ConfigFingerprint(const L1Config& config);
uint64_t ConfigFingerprint(const L2Config& config);
uint64_t ConfigFingerprint(const L3Config& config);

}  // namespace logmine::core

#endif  // LOGMINE_CORE_SERIALIZATION_H_
