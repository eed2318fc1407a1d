#include "eval/shard_supervisor.h"

#include <exception>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/serialization.h"
#include "util/snapshot.h"

namespace logmine::eval {
namespace {

/// One cell's lifecycle. Only the task mining the cell writes it, so no
/// lock guards it; ParallelFor's return publishes it to the caller.
struct ShardState {
  core::ShardId shard;
  bool loaded = false;   ///< resumed from its partial, never mined
  bool covered = false;  ///< loaded or mined; else poisoned
  int attempts = 0;
  int failures = 0;
  ShardOutput output;  ///< valid once covered
  std::string last_error;
};

/// What every cell's mining shares; read-only once mining starts.
struct Sweep {
  ShardGrid grid;
  const ShardMineFn* mine = nullptr;
  const ShardSupervisorConfig* config = nullptr;
  uint64_t state_hash = 0;
  /// Journal root span of this sweep ("sweep-<n>"); empty without obs.
  std::string span;
};

/// Where cell `shard`'s partial lives under `dir`.
std::string PartialPath(const std::string& dir, core::ShardId shard) {
  return dir + "/partial-d" + std::to_string(shard.day) + "-r" +
         std::to_string(shard.range_index) + ".snap";
}

/// Journal span of one shard cell under the sweep's root span.
std::string ShardSpan(const Sweep& sweep, const ShardState& state) {
  return sweep.span + "/d" + std::to_string(state.shard.day) + ".r" +
         std::to_string(state.shard.range_index);
}

/// Appends one event to the sweep's journal; no-op without obs.
void JournalEmit(const Sweep& sweep, std::string_view span,
                 std::string_view event,
                 std::vector<obs::JournalField> fields = {}) {
  if (sweep.config->obs != nullptr) {
    sweep.config->obs->journal().Emit(span, event, fields);
  }
}

/// Appends the event that closes a timed stage; no-op without obs.
void JournalEmit(const Sweep& sweep, std::string_view span,
                 std::string_view event, const obs::StageClock& clock,
                 std::vector<obs::JournalField> fields = {}) {
  if (sweep.config->obs != nullptr) {
    sweep.config->obs->journal().Emit(span, event, clock.End(),
                                      std::move(fields));
  }
}

/// Runs the mine function with full containment: a thrown exception
/// becomes an Internal failure of this attempt instead of escaping into
/// the executor loop.
Result<ShardOutput> MineContained(const ShardMineFn& mine,
                                  core::ShardId shard) {
  try {
    return mine(shard);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("shard mine threw: ") + e.what());
  } catch (...) {
    return Status::Internal("shard mine threw a non-std exception");
  }
}

/// One attempt of one shard: the mine itself, then — with a partial
/// dir — the cell's partial written to disk. On success stores the
/// mined model and payload into *out.
Status AttemptShard(const Sweep& sweep, ShardState* state, ShardOutput* out) {
  const ShardSupervisorConfig& config = *sweep.config;
  const int attempt_no = ++state->attempts;
  obs::Count(config.obs, obs::Metric::kShardAttempts);
  const obs::StageClock clock;
  // Per-attempt journal span: "<sweep>/d<day>.r<range>/a<attempt>". The
  // attempt opens with shard_attempt and closes with shard_attempt_failed
  // or shard_attempt_done, which carry its stage record.
  const std::string attempt_span =
      ShardSpan(sweep, *state) + "/a" + std::to_string(attempt_no);
  JournalEmit(sweep, attempt_span, "shard_attempt");

  auto fail = [&](Status status) {
    ++state->failures;
    state->last_error = std::string(status.message());
    obs::Count(config.obs, obs::Metric::kShardFailures);
    JournalEmit(sweep, attempt_span, "shard_attempt_failed", clock,
                {obs::JournalField::Str("code", StatusCodeName(status.code())),
                 obs::JournalField::Str("error", status.message())});
    return status;
  };

  Result<ShardOutput> mined = MineContained(*sweep.mine, state->shard);
  obs::Observe(config.obs, obs::Metric::kShardAttemptNs, clock.ElapsedNs());
  if (!mined.ok()) return fail(mined.status());

  ShardOutput& output = mined.value();
  if (!config.partial_dir.empty()) {
    // Encoding is lossless, so the mined output itself is what merges;
    // the bytes exist only to be written.
    core::PartialModel part{state->shard, sweep.grid.num_days,
                            sweep.grid.num_ranges, sweep.state_hash,
                            std::move(output.model), std::move(output.payload)};
    const std::string bytes = core::PartialModelBytes(part);
    output = {std::move(part.model), std::move(part.payload)};
    const std::string path = PartialPath(config.partial_dir, state->shard);
    const Status written =
        RetryWithBackoff(config.retry, "shard-partial-write",
                         [&] { return WriteSnapshotFile(path, bytes); });
    if (!written.ok()) return fail(written);
  }

  *out = std::move(output);
  JournalEmit(sweep, attempt_span, "shard_attempt_done", clock);
  return Status::OK();
}

/// Mines one cell: a single RetryWithBackoff run over AttemptShard. An
/// Internal failure is retried until `max_attempts` attempts have
/// failed — the breaker — and any other poisons the shard at once, since
/// it would fail identically forever.
void MineShard(const Sweep& sweep, ShardState* state) {
  const ShardSupervisorConfig& config = *sweep.config;
  const std::string op_name = "shard-d" + std::to_string(state->shard.day) +
                              "-r" + std::to_string(state->shard.range_index);
  ShardOutput output;
  const Status final = RetryWithBackoff(
      config.retry, op_name,
      [&] { return AttemptShard(sweep, state, &output); });
  if (final.ok()) {
    state->covered = true;
    state->output = std::move(output);
    obs::Count(config.obs, obs::Metric::kShardsCompleted);
    JournalEmit(sweep, ShardSpan(sweep, *state), "shard_done",
                {obs::JournalField::Num("attempts", state->attempts),
                 obs::JournalField::Num("failures", state->failures)});
    return;
  }
  if (state->failures >= config.retry.max_attempts) {
    obs::Count(config.obs, obs::Metric::kShardBreakerTrips);
    JournalEmit(sweep, ShardSpan(sweep, *state), "breaker_trip",
                {obs::JournalField::Num("failures", state->failures)});
  }
  obs::Count(config.obs, obs::Metric::kShardsPoisoned);
  JournalEmit(sweep, ShardSpan(sweep, *state), "shard_poisoned",
              {obs::JournalField::Num("attempts", state->attempts),
               obs::JournalField::Num("failures", state->failures),
               obs::JournalField::Str("last_error", state->last_error)});
}

/// The resume: loads every cell whose partial under `partial_dir` parses
/// with this sweep's grid and state hash, marking it covered so it is
/// never mined. A torn or corrupt file is deleted and its cell left to
/// mine again; a valid partial of another sweep refuses the whole run
/// with FailedPrecondition. Runs before any cell is mined.
Status LoadPartials(const Sweep& sweep, std::vector<ShardState>* states,
                    ShardedSweepStats* stats) {
  const ShardSupervisorConfig& config = *sweep.config;
  for (ShardState& state : *states) {
    const std::string path = PartialPath(config.partial_dir, state.shard);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) continue;
    const int64_t read_start_ns = obs::MonotonicNowNs();
    std::string bytes;
    const Status read = RetryWithBackoff(
        config.retry, "shard-partial-read", [&]() -> Status {
          LOGMINE_ASSIGN_OR_RETURN(bytes, ReadFileToString(path));
          return Status::OK();
        });
    obs::Observe(config.obs, obs::Metric::kCheckpointReadNs,
                 obs::MonotonicNowNs() - read_start_ns);
    obs::Count(config.obs, obs::Metric::kCheckpointBytesRead,
               static_cast<int64_t>(bytes.size()));
    Result<core::PartialModel> parsed =
        read.ok() ? core::ParsePartialModelBytes(std::move(bytes))
                  : Result<core::PartialModel>(read);
    if (parsed.ok() && (parsed.value().state_hash != sweep.state_hash ||
                        parsed.value().num_days != sweep.grid.num_days ||
                        parsed.value().num_ranges != sweep.grid.num_ranges)) {
      return Status::FailedPrecondition(
          path + " belongs to another sweep (state hash " +
          std::to_string(parsed.value().state_hash) + " over a " +
          std::to_string(parsed.value().num_days) + " x " +
          std::to_string(parsed.value().num_ranges) + " grid, this sweep is " +
          std::to_string(sweep.state_hash) + " over " +
          std::to_string(sweep.grid.num_days) + " x " +
          std::to_string(sweep.grid.num_ranges) +
          "); refusing to resume — use a fresh partial_dir or restore the "
          "original config and corpus");
    }
    if (parsed.ok() && !(parsed.value().shard == state.shard)) {
      parsed = Status::ParseError(
          "holds shard (" + std::to_string(parsed.value().shard.day) + ", " +
          std::to_string(parsed.value().shard.range_index) + ")");
    }
    if (!parsed.ok()) {
      std::filesystem::remove(path, ec);  // best-effort; re-mined anyway
      ++stats->partials_discarded;
      obs::Count(config.obs, obs::Metric::kCheckpointPartialsDiscarded);
      JournalEmit(sweep, ShardSpan(sweep, state), "partial_discarded",
                  {obs::JournalField::Str("error", parsed.status().message())});
      continue;
    }
    state.output.model = std::move(parsed.value().model);
    state.output.payload = std::move(parsed.value().payload);
    state.loaded = true;
    state.covered = true;
    ++stats->shards_loaded;
    obs::Count(config.obs, obs::Metric::kCheckpointSnapshotsRead);
    JournalEmit(sweep, ShardSpan(sweep, state), "shard_loaded");
  }
  return Status::OK();
}

}  // namespace

std::string_view SweepOutcomeName(SweepOutcome outcome) {
  switch (outcome) {
    case SweepOutcome::kComplete:
      return "complete";
    case SweepOutcome::kDegraded:
      return "degraded";
    case SweepOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

Result<ShardedSweepResult> RunShardedSweep(
    const ShardGrid& grid, const ShardMineFn& mine,
    const ShardSupervisorConfig& config, uint64_t state_hash) {
  if (grid.num_days < 1 || grid.num_ranges < 1) {
    return Status::InvalidArgument(
        "shard grid must be at least 1x1, got " +
        std::to_string(grid.num_days) + "x" + std::to_string(grid.num_ranges));
  }
  if (!mine) return Status::InvalidArgument("null shard mine function");
  if (config.retry.max_attempts < 1) {
    return Status::InvalidArgument("retry.max_attempts must be >= 1");
  }
  // The sweep's stage record covers the calling thread only: the cells
  // mined on executor workers report their CPU on their own attempts.
  const obs::StageClock sweep_clock;

  Sweep sweep;
  sweep.grid = grid;
  sweep.mine = &mine;
  sweep.config = &config;
  sweep.state_hash = state_hash;
  if (config.obs != nullptr) {
    sweep.span = config.obs->journal().BeginRootSpan("sweep");
    JournalEmit(sweep, sweep.span, "sweep_start",
                {obs::JournalField::Num("num_days", grid.num_days),
                 obs::JournalField::Num("num_ranges", grid.num_ranges),
                 obs::JournalField::Num(
                     "state_hash", static_cast<int64_t>(state_hash))});
  }
  std::vector<ShardState> states;
  states.reserve(static_cast<size_t>(grid.cells()));
  for (int day = 0; day < grid.num_days; ++day) {
    for (int range = 0; range < grid.num_ranges; ++range) {
      states.emplace_back().shard = {day, range};
    }
  }
  ShardedSweepStats stats;
  if (!config.partial_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.partial_dir, ec);
    if (ec) {
      return Status::Internal("cannot create partial dir " +
                              config.partial_dir + ": " + ec.message());
    }
    LOGMINE_RETURN_IF_ERROR(LoadPartials(sweep, &states, &stats));
  }

  std::vector<ShardState*> pending;
  for (ShardState& state : states) {
    if (!state.covered) pending.push_back(&state);
  }
  const Executor& executor =
      config.executor != nullptr ? *config.executor : Executor::Shared();
  executor.ParallelFor(
      pending.size(), [&](size_t i) { MineShard(sweep, pending[i]); },
      config.max_in_flight);

  ShardedSweepResult result;
  result.state_hash = state_hash;
  std::vector<core::PartialModel> parts;
  for (ShardState& state : states) {
    stats.attempts += state.attempts;
    stats.failures += state.failures;
    if (state.covered) {
      if (!state.loaded) ++stats.shards_completed;
    } else {
      ++stats.shards_poisoned;
      if (state.failures >= config.retry.max_attempts) ++stats.breaker_trips;
    }
    ShardReport report;
    report.shard = state.shard;
    report.covered = state.covered;
    report.poisoned = !state.covered;
    report.attempts = state.attempts;
    report.failures = state.failures;
    report.last_error = state.last_error;
    if (state.covered) {
      report.payload = std::move(state.output.payload);
      core::PartialModel part;
      part.shard = state.shard;
      part.num_days = grid.num_days;
      part.num_ranges = grid.num_ranges;
      part.state_hash = state_hash;
      part.model = std::move(state.output.model);
      parts.push_back(std::move(part));
    }
    result.shards.push_back(std::move(report));
  }
  result.stats = stats;

  if (parts.empty()) {
    JournalEmit(sweep, sweep.span, "sweep_end", sweep_clock,
                {obs::JournalField::Str("outcome", "failed"),
                 obs::JournalField::Num("shards_poisoned",
                                        stats.shards_poisoned)});
    if (config.obs != nullptr) {
      // Best-effort: the sweep's failure status stands regardless of
      // whether the bundle made it to disk.
      (void)obs::CapturePostmortem(config.postmortem, config.obs,
                                   "sweep_failed", sweep.span, state_hash);
    }
    return Status::Internal(
        "sharded sweep failed: all " + std::to_string(grid.cells()) +
        " shards poisoned (last error: " + states.front().last_error + ")");
  }
  LOGMINE_ASSIGN_OR_RETURN(
      result.merged,
      core::MergePartialModels(grid.num_days, grid.num_ranges, parts));
  result.outcome = result.merged.coverage.complete() ? SweepOutcome::kComplete
                                                     : SweepOutcome::kDegraded;
  if (config.obs != nullptr) {
    config.obs->metrics().Add(
        obs::Metric::kSweepCoveragePermille,
        static_cast<int64_t>(result.merged.coverage.fraction() * 1000.0));
    JournalEmit(
        sweep, sweep.span, "sweep_end", sweep_clock,
        {obs::JournalField::Str("outcome", SweepOutcomeName(result.outcome)),
         obs::JournalField::Num("shards_completed", stats.shards_completed),
         obs::JournalField::Num("shards_poisoned", stats.shards_poisoned),
         obs::JournalField::Num("shards_loaded", stats.shards_loaded),
         obs::JournalField::Num(
             "coverage_permille",
             static_cast<int64_t>(result.merged.coverage.fraction() *
                                  1000.0))});
    if (result.outcome == SweepOutcome::kDegraded) {
      (void)obs::CapturePostmortem(config.postmortem, config.obs,
                                   "sweep_degraded", sweep.span, state_hash);
    }
  }
  return result;
}

std::string_view TechniqueName(Technique technique) {
  switch (technique) {
    case Technique::kL1:
      return "l1";
    case Technique::kL2:
      return "l2";
    case Technique::kL3:
      return "l3";
  }
  return "unknown";
}

namespace {

/// Shared front of every binding: a shard outside the dataset is a
/// caller bug, not a transient.
Status CheckShard(const Dataset& dataset, core::ShardId shard) {
  if (shard.day < 0 || shard.day >= dataset.num_days()) {
    return Status::InvalidArgument("shard day " + std::to_string(shard.day) +
                                   " outside the dataset");
  }
  return Status::OK();
}

}  // namespace

ShardMineFn MakeL1ShardMiner(const Dataset& dataset,
                             const core::L1Config& config, int num_ranges) {
  return [&dataset, config,
          num_ranges](core::ShardId shard) -> Result<ShardOutput> {
    LOGMINE_RETURN_IF_ERROR(CheckShard(dataset, shard));
    core::L1ActivityMiner miner(config);
    LOGMINE_ASSIGN_OR_RETURN(
        core::L1Result result,
        miner.Mine(dataset.store, dataset.day_begin(shard.day),
                   dataset.day_end(shard.day),
                   core::PairRange{static_cast<uint32_t>(shard.range_index),
                                   static_cast<uint32_t>(num_ranges)}));
    return ShardOutput{result.Dependencies(dataset.store), {}};
  };
}

ShardMineFn MakeL2ShardMiner(const Dataset& dataset,
                             const core::L2Config& config) {
  return [&dataset, config](core::ShardId shard) -> Result<ShardOutput> {
    LOGMINE_RETURN_IF_ERROR(CheckShard(dataset, shard));
    core::L2CooccurrenceMiner miner(config);
    LOGMINE_ASSIGN_OR_RETURN(
        core::L2Result result,
        miner.Mine(dataset.store, dataset.day_begin(shard.day),
                   dataset.day_end(shard.day)));
    SnapshotWriter w;
    w.BeginSection("sessions");
    core::EncodeSessionBuildStats(result.session_stats, &w);
    w.EndSection();
    return ShardOutput{result.Dependencies(dataset.store),
                       std::move(w).Finish()};
  };
}

ShardMineFn MakeL3ShardMiner(const Dataset& dataset,
                             const core::L3Config& config) {
  return [&dataset, config](core::ShardId shard) -> Result<ShardOutput> {
    LOGMINE_RETURN_IF_ERROR(CheckShard(dataset, shard));
    core::L3TextMiner miner(dataset.vocabulary, config);
    LOGMINE_ASSIGN_OR_RETURN(
        core::L3Result result,
        miner.Mine(dataset.store, dataset.day_begin(shard.day),
                   dataset.day_end(shard.day)));
    return ShardOutput{result.Dependencies(dataset.store, dataset.vocabulary),
                       {}};
  };
}

Result<core::SessionBuildStats> L2SessionStats(std::string payload) {
  LOGMINE_ASSIGN_OR_RETURN(SnapshotReader reader,
                           SnapshotReader::Parse(payload));
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor cursor, reader.Section("sessions"));
  LOGMINE_ASSIGN_OR_RETURN(core::SessionBuildStats stats,
                           core::DecodeSessionBuildStats(&cursor));
  LOGMINE_RETURN_IF_ERROR(cursor.ExpectEnd());
  return stats;
}

uint64_t SweepStateHash(const Dataset& dataset, Technique technique,
                        uint64_t config_fingerprint, int num_ranges) {
  core::Fingerprinter fp;
  fp.MixU64(static_cast<uint64_t>(technique));
  fp.MixU64(config_fingerprint);
  fp.MixU64(dataset.simulation.seed);
  fp.MixI64(dataset.simulation.num_days);
  fp.MixDouble(dataset.simulation.scale);
  fp.MixI64(dataset.simulation.start);
  fp.MixU64(dataset.store.size());
  fp.MixI64(dataset.universe_pairs);
  fp.MixI64(dataset.universe_services);
  fp.MixU64(dataset.reference_pairs.size());
  fp.MixU64(dataset.reference_services.size());
  // The grid: partials sliced differently must not merge.
  fp.MixI64(num_ranges);
  return fp.digest();
}

Result<ShardedSweepResult> RunL1ShardedSweep(
    const Dataset& dataset, const core::L1Config& config,
    const ShardSupervisorConfig& supervisor) {
  if (supervisor.num_ranges < 1) {
    return Status::InvalidArgument("num_ranges must be >= 1, got " +
                                   std::to_string(supervisor.num_ranges));
  }
  const ShardGrid grid{dataset.num_days(), supervisor.num_ranges};
  return RunShardedSweep(
      grid, MakeL1ShardMiner(dataset, config, grid.num_ranges), supervisor,
      SweepStateHash(dataset, Technique::kL1, core::ConfigFingerprint(config),
                     grid.num_ranges));
}

}  // namespace logmine::eval
