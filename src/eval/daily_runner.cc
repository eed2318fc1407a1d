#include "eval/daily_runner.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>

#include "core/serialization.h"
#include "util/time_util.h"

namespace logmine::eval {
namespace {

/// The supervisor behind RunL{1,2,3}Daily: one day at a time on the
/// caller (each miner keeps its own num_threads parallelism), no
/// partials.
ShardSupervisorConfig PlainSupervisor() {
  ShardSupervisorConfig config;
  config.max_in_flight = 1;
  return config;
}

/// Runs one technique as a sharded sweep and folds the merged per-day
/// models, in day order, into the daily result. An error unless the
/// sweep covered every cell.
Result<DailyRunResult> RunTechnique(const Dataset& dataset,
                                    Technique technique,
                                    uint64_t config_fingerprint,
                                    int num_ranges, const ShardMineFn& mine,
                                    const ShardSupervisorConfig& supervisor) {
  const ShardGrid grid{dataset.num_days(), num_ranges};
  LOGMINE_ASSIGN_OR_RETURN(
      ShardedSweepResult swept,
      RunShardedSweep(grid, mine, supervisor,
                      SweepStateHash(dataset, technique, config_fingerprint,
                                     num_ranges)));
  if (swept.outcome != SweepOutcome::kComplete) {
    const auto poisoned =
        std::find_if(swept.shards.begin(), swept.shards.end(),
                     [](const ShardReport& r) { return r.poisoned; });
    std::string first_error;
    if (poisoned != swept.shards.end()) {
      first_error = " (day " + std::to_string(poisoned->shard.day) +
                    " range " + std::to_string(poisoned->shard.range_index) +
                    ": " + poisoned->last_error + ")";
    }
    return Status::Internal(
        std::string(TechniqueName(technique)) + " sweep incomplete: " +
        std::to_string(swept.merged.coverage.total_cells() -
                       swept.merged.coverage.covered_cells()) +
        " of " + std::to_string(grid.cells()) + " cells missing" +
        first_error);
  }

  DailyRunResult out;
  out.sweep = swept.stats;
  out.merged = std::move(swept.merged);
  for (int day = 0; day < dataset.num_days(); ++day) {
    const core::DependencyModel& model = out.merged.daily[day];
    out.series.day_labels.push_back(FormatDate(dataset.day_begin(day)));
    out.series.days.push_back(
        technique == Technique::kL3
            ? core::Evaluate(model, dataset.reference_services,
                             dataset.universe_services)
            : core::Evaluate(model, dataset.reference_pairs,
                             dataset.universe_pairs));
  }
  if (technique == Technique::kL2) {
    // One range per day, reports in day order.
    for (ShardReport& report : swept.shards) {
      LOGMINE_ASSIGN_OR_RETURN(core::SessionBuildStats stats,
                               L2SessionStats(std::move(report.payload)));
      out.session_stats.push_back(stats);
    }
  }
  return out;
}

Result<DailyRunResult> RunL1(const Dataset& dataset,
                             const core::L1Config& config,
                             const ShardSupervisorConfig& supervisor) {
  if (supervisor.num_ranges < 1) {
    return Status::InvalidArgument("num_ranges must be >= 1, got " +
                                   std::to_string(supervisor.num_ranges));
  }
  return RunTechnique(dataset, Technique::kL1, core::ConfigFingerprint(config),
                      supervisor.num_ranges,
                      MakeL1ShardMiner(dataset, config, supervisor.num_ranges),
                      supervisor);
}

Result<DailyRunResult> RunL2(const Dataset& dataset,
                             const core::L2Config& config,
                             const ShardSupervisorConfig& supervisor) {
  return RunTechnique(dataset, Technique::kL2, core::ConfigFingerprint(config),
                      1, MakeL2ShardMiner(dataset, config), supervisor);
}

Result<DailyRunResult> RunL3(const Dataset& dataset,
                             const core::L3Config& config,
                             const ShardSupervisorConfig& supervisor) {
  return RunTechnique(dataset, Technique::kL3, core::ConfigFingerprint(config),
                      1, MakeL3ShardMiner(dataset, config), supervisor);
}

}  // namespace

Result<stats::MedianCi> DailyRunResult::TpRatioCi(double level) const {
  return stats::MedianConfidenceInterval(series.TpRatios(), level);
}

Result<DailyRunResult> RunL1Daily(const Dataset& dataset,
                                  const core::L1Config& config) {
  return RunL1(dataset, config, PlainSupervisor());
}

Result<DailyRunResult> RunL2Daily(
    const Dataset& dataset, const core::L2Config& config,
    std::vector<core::SessionBuildStats>* session_stats) {
  auto run = RunL2(dataset, config, PlainSupervisor());
  if (session_stats != nullptr) {
    session_stats->clear();
    if (run.ok()) *session_stats = run.value().session_stats;
  }
  return run;
}

Result<DailyRunResult> RunL3Daily(const Dataset& dataset,
                                  const core::L3Config& config) {
  return RunL3(dataset, config, PlainSupervisor());
}

Result<SweepResult> RunSweep(const Dataset& dataset, const SweepConfig& config,
                             const ShardSupervisorConfig& supervisor) {
  const auto for_technique = [&](Technique technique) {
    ShardSupervisorConfig sub = supervisor;
    if (!sub.partial_dir.empty()) {
      sub.partial_dir = (std::filesystem::path(supervisor.partial_dir) /
                         TechniqueName(technique))
                            .string();
    }
    return sub;
  };
  SweepResult out;
  if (config.run_l1) {
    LOGMINE_ASSIGN_OR_RETURN(
        out.l1, RunL1(dataset, config.l1, for_technique(Technique::kL1)));
  }
  if (config.run_l2) {
    LOGMINE_ASSIGN_OR_RETURN(
        out.l2, RunL2(dataset, config.l2, for_technique(Technique::kL2)));
  }
  if (config.run_l3) {
    LOGMINE_ASSIGN_OR_RETURN(
        out.l3, RunL3(dataset, config.l3, for_technique(Technique::kL3)));
  }
  return out;
}

}  // namespace logmine::eval
