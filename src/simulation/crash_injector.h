#ifndef LOGMINE_SIMULATION_CRASH_INJECTOR_H_
#define LOGMINE_SIMULATION_CRASH_INJECTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"

namespace logmine::sim {

// Shard fault plans: the chaos axis of the sharded sweep supervisor. A
// plan misbehaves individual (day × pair-range) shard attempts — fail,
// hang, corrupt, or slow them — so the supervisor's retry and
// circuit-breaker machinery can be driven deterministically. (A crash
// of the whole sweep needs no injector: it leaves some subset of the
// cells' partials on disk, which tests build directly.)

/// What a faulted shard attempt does.
enum class ShardFault : uint32_t {
  kNone = 0,
  /// The attempt fails with Internal before mining — the classic
  /// transient worker death; retryable.
  kFailTransient,
  /// The attempt stands in for a hung worker: it waits `slow_ms`, then
  /// fails with DeadlineExceeded; retryable.
  kHang,
  /// The attempt mines correctly but its serialized partial model is
  /// corrupted in flight; validation rejects it (ParseError) and the
  /// retry must re-mine.
  kCorruptModel,
  /// The attempt sleeps `slow_ms` before mining, then succeeds. Not a
  /// failure — a straggler that costs time but no work.
  kSlow,
};

/// Stable name used in flags and test output (e.g. "fail-transient").
std::string_view ShardFaultName(ShardFault fault);

/// Parses the result of ShardFaultName back; InvalidArgument otherwise.
Result<ShardFault> ShardFaultFromName(std::string_view name);

/// `times` value meaning "every attempt, forever" — a permanent fault
/// the supervisor can only resolve by quarantining the shard.
inline constexpr int kShardFaultAlways = INT32_MAX;

/// One shard's misbehaviour: fault `fault` on its first `times`
/// attempts, then behave normally.
struct ShardFaultSpec {
  int day = 0;
  int range_index = 0;
  ShardFault fault = ShardFault::kNone;
  int times = 1;
  /// Delay of kSlow before it mines, and of kHang before it fails.
  int64_t slow_ms = 20;
};

/// A full chaos plan: at most one spec per shard cell.
struct ShardFaultPlan {
  std::vector<ShardFaultSpec> faults;
};

struct ShardFaultPlanOptions {
  /// Upper bound on distinct faulty shards (capped by the grid size).
  int max_faulty_shards = 3;
  /// Upper bound on `times` for transient faults.
  int max_times = 2;
  /// Probability a drawn fault is permanent (times = kShardFaultAlways).
  double permanent_fraction = 0.0;
};

/// Draws a seeded random plan over a `num_days` x `num_ranges` grid:
/// distinct shards, random fault kinds and repeat counts — all
/// randomness from the caller's Rng, so a chaos sweep over seeds is
/// exactly reproducible.
ShardFaultPlan RandomShardFaultPlan(Rng* rng, int num_days, int num_ranges,
                                    const ShardFaultPlanOptions& options);

/// Evaluates a plan. A pure function of (plan, shard, attempt): it keeps
/// no fired-state, so concurrent shard attempts
/// can consult it without synchronization and a rerun of the same plan
/// sees the same faults.
class ShardFaultInjector {
 public:
  explicit ShardFaultInjector(ShardFaultPlan plan) : plan_(std::move(plan)) {}

  /// The fault this attempt should exhibit; `attempt` is 1-based and
  /// counts every attempt of the shard. kNone once the spec's `times`
  /// are spent.
  ShardFault OnAttempt(int day, int range_index, int attempt) const;

  /// The spec covering a shard, or nullptr when it behaves normally.
  const ShardFaultSpec* SpecFor(int day, int range_index) const;

  /// The cells no amount of retrying can save: permanent faults other
  /// than kSlow (a permanently slow shard still completes). Exactly the
  /// cells a degraded run must report as uncovered, in (day, range)
  /// order.
  std::vector<std::pair<int, int>> PermanentlyPoisoned() const;

  const ShardFaultPlan& plan() const { return plan_; }

 private:
  ShardFaultPlan plan_;
};

}  // namespace logmine::sim

#endif  // LOGMINE_SIMULATION_CRASH_INJECTOR_H_
