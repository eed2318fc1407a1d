#ifndef LOGMINE_OBS_METRICS_H_
#define LOGMINE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/latency_sketch.h"

namespace logmine::obs {

/// What a metric measures. Counters are monotonic sums, gauges are
/// up/down sums (e.g. a queue depth maintained by +1/-1 deltas), and
/// sketches are mergeable bounded-relative-error quantile sketches
/// (obs/latency_sketch.h) — every latency distribution in the library.
enum class MetricKind : uint32_t {
  kCounter = 0,
  kGauge = 1,
  kSketch = 2,
};

std::string_view MetricKindName(MetricKind kind);

/// Every built-in instrumentation point in the library, one per line of
/// the naming scheme `<layer>.<what>[_ns]` (DESIGN.md §10). The enum is
/// the registry's whole schema: `Add(Metric::k...)` compiles to an array
/// index with no name lookup.
enum class Metric : uint32_t {
  // --- ingest / decode (log/codec.cc) ---
  kIngestLinesTotal = 0,
  kIngestRecordsDecoded,
  kIngestLinesQuarantined,
  kIngestBytesDecoded,
  // Per-class quarantine tallies; order mirrors IngestErrorClass.
  kIngestQuarantinedBadEscape,
  kIngestQuarantinedFieldCount,
  kIngestQuarantinedBadTimestamp,
  kIngestQuarantinedBadSeverity,
  kIngestQuarantinedEmptySource,
  kIngestQuarantinedTruncatedLine,
  kIngestDecodeNs,
  // Parallel chunked decode (log/codec.cc) and the binary columnar
  // corpus format (log/columnar.cc).
  kIngestParallelDecodes,
  kIngestChunksDecoded,
  kIngestColumnarReads,
  kIngestColumnarWrites,
  kIngestColumnarBytesRead,
  kIngestColumnarReadNs,
  kIngestColumnarWriteNs,
  // --- log store (log/store.cc) ---
  kStoreIndexBuilds,
  kStoreRecordsIndexed,
  kStoreIndexBuildNs,
  kStoreRangeQueries,
  // --- miners (core/) ---
  kL1Runs,
  kL1SlotsTotal,
  kL1SlotTests,
  kL1PairsTested,
  kL1PairsPruned,
  kL1MineNs,
  kL2Runs,
  kL2SessionsBuilt,
  kL2SessionLogsAssigned,
  kL2BigramsCounted,
  kL2PairsScored,
  kL2SessionBuildNs,
  kL2MineNs,
  kL3Runs,
  kL3LogsScanned,
  kL3LogsStopped,
  kL3CitationsCounted,
  kL3MineNs,
  kAgrawalRuns,
  kAgrawalMineNs,
  // --- executor (util/executor.cc) ---
  kExecutorTasksCompleted,
  kExecutorParallelLoops,
  kExecutorQueueDepth,
  kExecutorSaturation,
  kExecutorTaskNs,
  /// Enqueue -> dequeue wait of each executor task, as a sketch: the
  /// time-unit face of saturation (the counter says *that* tasks
  /// waited; this says *how long*), measurable even on a 1-core box.
  kExecutorQueueWaitNs,
  // --- pipeline (core/pipeline.cc) ---
  kPipelineRuns,
  kPipelineMinersOk,
  kPipelineMinersFailed,
  kPipelineRunNs,
  // --- checkpoint I/O (util/snapshot.cc; reads are the sweep resume in
  // eval/shard_supervisor.cc) ---
  kCheckpointSnapshotsWritten,
  kCheckpointBytesWritten,
  kCheckpointWriteNs,
  kCheckpointSnapshotsRead,
  kCheckpointBytesRead,
  kCheckpointReadNs,
  kCheckpointPartialsDiscarded,
  // --- retry (util/retry.cc) ---
  kRetryAttempts,
  kRetryBackoffMsTotal,
  // --- sharded sweep supervisor (eval/shard_supervisor.cc) ---
  kShardAttempts,
  kShardFailures,
  kShardBreakerTrips,
  kShardsCompleted,
  kShardsPoisoned,
  kShardAttemptNs,
  kSweepCoveragePermille,
  // --- streaming mining service (src/serve/) ---
  kServeBatchesSubmitted,
  kServeBatchesShed,
  kServeBatchesPoisoned,
  kServeEpochsIngested,
  kServeEpochsAgedOut,
  kServeQueueDepth,
  kServeGenerationsPublished,
  kServeQueries,
  kServeStateSnapshotsWritten,
  kServeRecoveries,
  kServeClockRegressions,
  kServeHealthTransitions,
  kServeIngestNs,
  kServePublishNs,
  kServeQueryNs,
  // --- postmortem / journal (src/obs/) ---
  kJournalEventsEmitted,
  kJournalRotations,
  kPostmortemBundlesWritten,

  kNumMetrics,
};

inline constexpr size_t kNumWellKnownMetrics =
    static_cast<size_t>(Metric::kNumMetrics);

/// Stable export name (e.g. "l2.bigrams_counted") and kind of a
/// well-known metric.
std::string_view MetricName(Metric metric);
MetricKind MetricKindOf(Metric metric);

/// Point-in-time merged view of a registry: every scalar metric in enum
/// order, then every sketch in enum order, so exports are deterministic
/// for any thread count.
struct MetricsSnapshot {
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    int64_t value = 0;         ///< counters and gauges
    LatencySketch sketch;      ///< sketches only
  };

  std::vector<Entry> entries;

  /// Entry by export name; nullptr when absent.
  const Entry* Find(std::string_view name) const;
  /// Scalar value by name; 0 when absent (sketches: the count).
  int64_t Value(std::string_view name) const;

  /// Aligned table (util/table_printer) of every non-zero metric:
  /// metric | kind | value | mean_ns | p99_ns.
  std::string ToText(bool include_zero = false) const;
  /// One JSON object: scalars as numbers, sketches as
  /// {"count","sum","mean","min","max","p50","p90","p99","p999",
  ///  "alpha"}.
  std::string ToJson() const;
};

/// Thread-safe metrics registry with a lock-free fast path: every
/// thread writes to its own shard of relaxed atomics (the FlatCounter
/// discipline — contention-free accumulation, merge on read), and
/// `Snapshot` sums the shards. Sketch metrics take a per-shard,
/// per-slot mutex instead (their updates are structural); the owning
/// thread is the only writer, so the lock is uncontended except
/// against snapshots. The schema is fixed: exactly the `Metric` enum.
///
/// Determinism: addition over int64 commutes (and sketch merge is
/// associative and order-independent), so a snapshot taken after the
/// instrumented work quiesces is byte-identical for any thread count
/// or schedule.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to a counter or gauge. Lock-free.
  void Add(Metric metric, int64_t delta = 1);

  /// Records one observation (latencies: nanoseconds) into a sketch.
  void Observe(Metric metric, int64_t value);

  /// Merged view of all shards. Safe to call concurrently with
  /// writers; exact once writers have quiesced.
  MetricsSnapshot Snapshot() const;

 private:
  struct Shard;

  Shard* LocalShard() const;

  const uint64_t registry_id_;  ///< process-unique, for thread-local lookup

  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace logmine::obs

#endif  // LOGMINE_OBS_METRICS_H_
