#ifndef LOGMINE_EVAL_DAILY_RUNNER_H_
#define LOGMINE_EVAL_DAILY_RUNNER_H_

#include <optional>
#include <vector>

#include "core/evaluation.h"
#include "core/l1_activity_miner.h"
#include "core/l2_cooccurrence_miner.h"
#include "core/l3_text_miner.h"
#include "eval/dataset.h"
#include "eval/shard_supervisor.h"
#include "stats/order_stats_ci.h"
#include "util/result.h"

namespace logmine::eval {

/// Per-day evaluation of one technique over the whole test period — the
/// machinery behind figures 5, 6 and 8: apply the technique to each day
/// independently, compare to the reference model, and quantify accuracy
/// with the 0.984-level order-statistics CI for the median TP ratio.
///
/// Everything here is a fold over the sweep's merged per-day models in
/// day order, so nothing but the per-cell partials is ever persisted.
struct DailyRunResult {
  core::DailySeries series;
  /// The sweep's merged model: the union, one model per day
  /// (`merged.daily`) and the (complete) coverage.
  core::MergedPartialModel merged;
  /// One entry per day for L2 (from the partials' payloads); empty for
  /// L1 and L3.
  std::vector<core::SessionBuildStats> session_stats;
  /// Tallies of the sweep that produced the models: cells mined, loaded
  /// from partials, discarded.
  ShardedSweepStats sweep;

  /// Median CI of the per-day TP ratios at `level` (paper: 0.98 requested,
  /// 0.984 achieved with 7 days).
  Result<stats::MedianCi> TpRatioCi(double level) const;

  /// Union of the daily models (the basis of §4.8's error taxonomy).
  const core::DependencyModel& UnionModel() const { return merged.model; }
};

/// Runs L1 per day against the app-pair reference.
Result<DailyRunResult> RunL1Daily(const Dataset& dataset,
                                  const core::L1Config& config);

/// Runs L2 per day; `session_stats` (optional) receives one entry per day.
Result<DailyRunResult> RunL2Daily(
    const Dataset& dataset, const core::L2Config& config,
    std::vector<core::SessionBuildStats>* session_stats);

/// Runs L3 per day against the app-service reference.
Result<DailyRunResult> RunL3Daily(const Dataset& dataset,
                                  const core::L3Config& config);

/// The techniques of a multi-technique sweep and their configs.
struct SweepConfig {
  bool run_l1 = true;
  bool run_l2 = true;
  bool run_l3 = true;
  core::L1Config l1;
  core::L2Config l2;
  core::L3Config l3;
};

struct SweepResult {
  std::optional<DailyRunResult> l1;
  std::optional<DailyRunResult> l2;
  std::optional<DailyRunResult> l3;
};

/// Runs the enabled techniques in L1, L2, L3 order, each as one sharded
/// sweep (eval/shard_supervisor.h) under `supervisor`. L1 is sliced into
/// `supervisor.num_ranges` pair ranges per day, L2 and L3 into one. With
/// a `partial_dir`, each technique keeps its partials in
/// `<partial_dir>/<l1|l2|l3>`, so a re-run after a crash loads every
/// finished cell of every technique and mines only the rest. Returns an
/// error unless every technique's sweep is kComplete; InvalidArgument
/// when `supervisor.num_ranges` < 1.
Result<SweepResult> RunSweep(const Dataset& dataset, const SweepConfig& config,
                             const ShardSupervisorConfig& supervisor);

}  // namespace logmine::eval

#endif  // LOGMINE_EVAL_DAILY_RUNNER_H_
