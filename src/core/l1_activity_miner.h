#ifndef LOGMINE_CORE_L1_ACTIVITY_MINER_H_
#define LOGMINE_CORE_L1_ACTIVITY_MINER_H_

#include <cstdint>
#include <vector>

#include "core/dependency.h"
#include "core/slotting.h"
#include "log/store.h"
#include "stats/point_process.h"
#include "util/result.h"

namespace logmine::core {

/// How L1's per-slot test models "random" points (§5 discusses replacing
/// the homogeneous baseline with one proportional to the total load).
enum class L1Baseline {
  kUniform,                ///< the paper's main method
  kIntensityProportional,  ///< §5 refinement: sample the overall log stream
};

/// Configuration of approach L1 (§3.1): logs as an activity measure.
struct L1Config {
  /// Slot length for local application of the test (paper: 1 hour,
  /// n = 24 slots per day).
  TimeMs slot_length = kMillisPerHour;
  /// When true, slots are chosen adaptively by a stationarity test (§5)
  /// instead of the fixed grid above.
  bool adaptive_slots = false;
  AdaptiveSlottingConfig adaptive;
  L1Baseline baseline = L1Baseline::kUniform;
  /// Jitter applied to intensity-proportional baseline points.
  TimeMs baseline_jitter = 250;
  /// Slots where either application has fewer logs are skipped. The
  /// paper uses 100 at full production volume (~10 M logs/day); at our
  /// default ~1/30 volume the equivalent threshold is proportionally
  /// lower, floored for test power.
  int64_t minlogs = 30;
  /// Decision thresholds: positive-ratio threshold over supported slots
  /// and minimum support as a *fraction* of all slots
  /// (paper: th_pr = 0.6, th_s = 0.3).
  double th_pr = 0.6;
  double th_s = 0.3;
  /// The per-slot median-distance test (sample size, CI level 0.95).
  stats::MedianDistanceTestConfig test;
  /// Seed of the random sampling inside the test.
  uint64_t seed = 7;
  /// Parallelism cap for the mining fan-out, which runs on the shared
  /// `Executor` pool. Results are bit-identical for any thread count:
  /// every random draw comes from an RNG stream keyed by
  /// (seed, source name, slot), never by thread or schedule.
  /// 1 = serial on the calling thread; 0 = use the whole pool.
  int num_threads = 1;
  /// Support pruning (DESIGN.md §11): pairs whose maximum attainable
  /// supported-slot count — the number of slots where both sources are
  /// active enough — cannot reach `th_s * slots` are reported with their
  /// exact support but never tested. Because positivity is only defined
  /// for pairs that can reach the support threshold (their positives are
  /// reported as 0 either way), toggling this cannot change the result;
  /// it only skips provably irrelevant work.
  bool prune_support = true;
  /// (slot, pair) tests per parallel work item. Fine-grained resharding
  /// keeps heavy slots from serializing the fan-out; chunk boundaries
  /// depend only on the test count and this grain, so results stay
  /// deterministic for any thread count.
  size_t pair_chunk = 16;
  /// Origin of the absolute slot numbering that keys L1's randomness.
  /// Each (slot, source) draws from an RNG stream keyed by the source
  /// *name* and the slot's absolute number on the `slot_length` grid:
  ///   abs_slot = (slot.begin - salt_anchor) / slot_length
  /// (adaptive slots, which have no fixed grid, use `slot.begin`). A
  /// slot's outcomes thus depend on its own logs only: not on where the
  /// mining window starts, nor on which other sources the store holds
  /// or in what order it met them. That is what lets the sliding-window
  /// miner (src/serve), which mines one epoch at a time, reproduce a
  /// batch mine over the same window byte for byte.
  TimeMs salt_anchor = 0;
};

/// Per-pair outcome of L1.
struct L1PairResult {
  LogStore::SourceId a = 0;
  LogStore::SourceId b = 0;
  int slots_total = 0;      ///< n
  int slots_supported = 0;  ///< s: slots where both apps have >= minlogs
  /// p: supported slots positive in *both* directions. Always 0 for
  /// pairs whose support cannot reach `th_s * slots` — those pairs can
  /// never be dependent, so they are skipped by support pruning, and the
  /// unpruned path reports them identically.
  int slots_positive = 0;
  double positive_ratio = 0.0;  ///< pr = p / s (0 when s = 0)
  bool dependent = false;
};

/// Full result: one entry per unordered source pair with any support,
/// ordered by (a, b).
struct L1Result {
  std::vector<L1PairResult> pairs;
  int slots_total = 0;
  /// Pairs (with support > 0) that went through per-slot testing vs
  /// pairs skipped entirely by support pruning; tested + pruned =
  /// pairs.size(). Mirrored into the l1.pairs_tested / l1.pairs_pruned
  /// metrics.
  int64_t pairs_tested = 0;
  int64_t pairs_pruned = 0;

  /// The positive decisions as an unordered-name dependency model.
  DependencyModel Dependencies(const LogStore& store) const;
};

/// L1's verdict on one pair (§3.1), shared by `L1ActivityMiner` and the
/// streaming window. Reads `slots_total`, `slots_supported` and
/// `slots_positive`; sets `positive_ratio` and `dependent`. A pair is
/// dependent when its support reaches `th_s * slots_total` and its
/// positive ratio reaches `th_pr`. Positivity is only defined for pairs
/// that can reach that support, so any other pair's `slots_positive` is
/// zeroed.
void DecideL1Pair(const L1Config& config, L1PairResult* pair);

/// One contiguous slice of the unordered source-pair universe — the
/// pair-range axis of a (day × pair-range) sharded sweep. Pairs (a, b)
/// with a < b are ranked in (a, b) lexicographic order over the store's
/// sources; slice `index` of `count` keeps ranks in
/// [total * index / count, total * (index + 1) / count). Every pair
/// lands in exactly one slice, so the union of per-slice results over
/// all indices equals the unsliced result — the invariant the partial
/// merge layer builds on.
struct PairRange {
  uint32_t index = 0;
  uint32_t count = 1;  ///< number of slices; 1 = the whole universe
};

/// Approach L1: for every pair of applications, compare per slot the
/// nearest-log distance of B's timestamps to A against uniformly random
/// points (order-statistics median CIs, one-sided); a pair is dependent
/// when the test is positive in both directions in enough slots.
class L1ActivityMiner {
 public:
  explicit L1ActivityMiner(L1Config config) : config_(config) {}

  /// Mines [begin, end) of `store` (index must be built).
  Result<L1Result> Mine(const LogStore& store, TimeMs begin,
                        TimeMs end) const;

  /// Pair-range-sharded variant: tests only the pairs in `range`'s
  /// slice, skipping every other pair's precompute and testing work.
  /// Per-pair outcomes are byte-identical to the unsliced run — all
  /// randomness is keyed by (seed, source name, slot), never by which pairs
  /// share the shard — so the slices of one day partition its full
  /// result exactly.
  Result<L1Result> Mine(const LogStore& store, TimeMs begin, TimeMs end,
                        PairRange range) const;

  /// Runs the per-slot test for a single ordered pair on one slot —
  /// exposed for diagnostics and the figure 2 boxplot bench.
  stats::MedianDistanceTestResult TestSlot(const LogStore& store,
                                           LogStore::SourceId a,
                                           LogStore::SourceId b, TimeMs begin,
                                           TimeMs end, uint64_t salt) const;

 private:
  L1Config config_;
};

}  // namespace logmine::core

#endif  // LOGMINE_CORE_L1_ACTIVITY_MINER_H_
