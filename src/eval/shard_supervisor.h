#ifndef LOGMINE_EVAL_SHARD_SUPERVISOR_H_
#define LOGMINE_EVAL_SHARD_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/l1_activity_miner.h"
#include "core/l2_cooccurrence_miner.h"
#include "core/l3_text_miner.h"
#include "core/partial_model.h"
#include "eval/dataset.h"
#include "obs/obs.h"
#include "obs/postmortem.h"
#include "util/executor.h"
#include "util/result.h"
#include "util/retry.h"

namespace logmine::eval {

/// The shard axes of a sweep: every (day, pair-range) cell is one
/// independently minable, retryable, mergeable task (DESIGN.md §9).
struct ShardGrid {
  int num_days = 1;
  int num_ranges = 1;
  int cells() const { return num_days * num_ranges; }
};

/// What one shard attempt mined: the cell's model plus opaque bytes
/// that ride with it in the cell's partial (L2: that day's
/// SessionBuildStats; empty for L1 and L3).
struct ShardOutput {
  core::DependencyModel model;
  std::string payload;
};

/// One shard's mining function: the supervisor is generic over what a
/// shard actually computes (the L1/L2/L3 bindings below). It must be
/// *pure* in the shard id — a retry yields the same model. A throw is
/// contained as an Internal failure of that attempt.
using ShardMineFn = std::function<Result<ShardOutput>(core::ShardId)>;

/// Knobs of one sharded sweep. The defaults favor the paper-scale
/// workloads: retry transients a couple of times with jittered backoff
/// and give up on a shard after `retry.max_attempts` failed attempts.
struct ShardSupervisorConfig {
  /// Pair-range slices per day (the second shard axis); 1 = per-day
  /// sharding only.
  int num_ranges = 1;
  /// Backoff schedule between attempts of one shard, and its breaker:
  /// after `max_attempts` (>= 1) failed attempts the shard is poisoned
  /// and never mined again. Only kInternal (worker death, a thrown mine,
  /// a failed partial write) is worth re-mining (`IsRetryable`); any
  /// other failure would repeat identically and poisons the shard at
  /// once.
  RetryPolicy retry;
  /// Cells mined at once, retries included: ParallelFor's
  /// max_parallelism, the calling thread counted (1 = one cell at a
  /// time on the caller; 0 = the pool size plus the caller).
  int max_in_flight = 0;
  /// When non-empty, the sweep is resumable: the directory is created
  /// at start, every cell whose `partial-d<day>-r<range>.snap` parses
  /// with this sweep's grid and state hash is loaded instead of mined,
  /// and every newly mined partial is persisted there (atomic
  /// tmp+rename). Reads and writes retry under `retry`.
  std::string partial_dir;
  /// Pool to mine cells on; nullptr = Executor::Shared().
  Executor* executor = nullptr;
  /// Observability; nullptr = off (see obs/obs.h). With a context the
  /// sweep also journals every shard boundary (attempt, failure,
  /// breaker trip, terminal phase) under one "sweep-<n>" root span of
  /// the context's journal.
  obs::ObsContext* obs = nullptr;
  /// Dump-on-failure: a sweep ending degraded or failed captures a
  /// postmortem bundle into `postmortem.dir` (empty = disabled;
  /// requires `obs`). See obs/postmortem.h.
  obs::PostmortemOptions postmortem;
};

/// How complete the sweep's merged model is.
enum class SweepOutcome : uint32_t {
  kComplete = 0,  ///< every cell covered
  kDegraded,      ///< some cells poisoned; merged model is partial
  kFailed,        ///< nothing survived (reported as an error Status)
};

std::string_view SweepOutcomeName(SweepOutcome outcome);

/// Per-shard postmortem. A cell loaded from its partial is covered with
/// zero attempts.
struct ShardReport {
  core::ShardId shard;
  bool covered = false;
  bool poisoned = false;
  int attempts = 0;
  int failures = 0;
  std::string last_error;  ///< empty when the shard never failed
  std::string payload;     ///< the covered cell's ShardOutput::payload
};

/// Whole-sweep tallies, summed from the cells once they are all settled
/// (mirrored into the shard.* metrics, the resume counts into
/// checkpoint.snapshots_read / checkpoint.partials_discarded).
struct ShardedSweepStats {
  int64_t attempts = 0;
  int64_t failures = 0;
  int64_t breaker_trips = 0;  ///< shards poisoned after max_attempts failures
  int64_t shards_completed = 0;
  int64_t shards_poisoned = 0;
  int64_t shards_loaded = 0;       ///< cells resumed from partial_dir
  int64_t partials_discarded = 0;  ///< torn or corrupt partials re-mined
};

struct ShardedSweepResult {
  SweepOutcome outcome = SweepOutcome::kComplete;
  /// Union model + per-day models + exact coverage of what survived.
  core::MergedPartialModel merged;
  /// One report per grid cell, in (day, range) order.
  std::vector<ShardReport> shards;
  ShardedSweepStats stats;
  uint64_t state_hash = 0;
};

/// Runs one sharded sweep: mines every cell of `grid` in one ParallelFor
/// on the executor, each cell one RetryWithBackoff run over its
/// attempts, quarantines shards that keep failing, and merges the
/// surviving partial models (core/partial_model.h) into one
/// coverage-annotated result.
///
/// Determinism: when every shard eventually succeeds the merged bytes
/// are identical to a fault-free run for any schedule or retry count —
/// attempts are pure in the shard id and the merge is a set union. When
/// shards are lost the coverage report names exactly the missing cells
/// and the merged model is exactly the union of the survivors.
///
/// Resume: with a `partial_dir`, cells whose persisted partial is valid
/// are loaded, not mined, so a sweep killed at any instant and run again
/// converges to the same merged bytes. A torn or corrupt partial is
/// discarded and its cell mined again; a valid partial written under a
/// different state hash or grid fails the sweep with FailedPrecondition
/// before anything is mined.
///
/// Returns OK with outcome kComplete or kDegraded; an error Status when
/// no shard survived (kFailed), the grid or `retry.max_attempts` is
/// invalid, `partial_dir` cannot be created (Internal) or holds another
/// sweep's partials.
Result<ShardedSweepResult> RunShardedSweep(const ShardGrid& grid,
                                           const ShardMineFn& mine,
                                           const ShardSupervisorConfig& config,
                                           uint64_t state_hash);

/// The techniques a sweep can shard; the name is the per-technique
/// subdirectory of a multi-technique sweep's partial_dir.
enum class Technique : uint32_t { kL1 = 1, kL2 = 2, kL3 = 3 };

std::string_view TechniqueName(Technique technique);

/// L1 binding: shard (day, range) mines `dataset`'s day with
/// L1ActivityMiner over PairRange{range, num_ranges}. Pure in the shard
/// id (L1's randomness is keyed by (seed, slot, source)), so the merged
/// sweep model of a fully covered run equals the union of unsliced
/// per-day models.
ShardMineFn MakeL1ShardMiner(const Dataset& dataset,
                             const core::L1Config& config, int num_ranges);

/// L2 and L3 bindings: one pair range per day (grid = days x 1). L2's
/// payload is the day's SessionBuildStats (see L2SessionStats).
ShardMineFn MakeL2ShardMiner(const Dataset& dataset,
                             const core::L2Config& config);
ShardMineFn MakeL3ShardMiner(const Dataset& dataset,
                             const core::L3Config& config);

/// Decodes the payload an L2 shard attached to its partial.
Result<core::SessionBuildStats> L2SessionStats(std::string payload);

/// Fingerprint binding a sweep's partials together: technique × miner
/// config (core::ConfigFingerprint) × dataset × grid. Partials of a
/// different technique, config, corpus or slicing refuse to load or
/// merge.
uint64_t SweepStateHash(const Dataset& dataset, Technique technique,
                        uint64_t config_fingerprint, int num_ranges);

/// Convenience wrapper: grid = dataset days × supervisor.num_ranges, L1
/// miner, L1 state hash. InvalidArgument when num_ranges < 1.
Result<ShardedSweepResult> RunL1ShardedSweep(
    const Dataset& dataset, const core::L1Config& config,
    const ShardSupervisorConfig& supervisor);

}  // namespace logmine::eval

#endif  // LOGMINE_EVAL_SHARD_SUPERVISOR_H_
