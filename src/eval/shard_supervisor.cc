#include "eval/shard_supervisor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/serialization.h"
#include "util/snapshot.h"

namespace logmine::eval {
namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedMs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               since)
      .count();
}

int64_t ElapsedNs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              since)
      .count();
}

/// The supervisor's default transient class: worker death, a tripped
/// shard deadline, and a corrupt partial model all deserve a re-mine.
bool SupervisorRetryable(StatusCode code) {
  return code == StatusCode::kInternal ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kParseError;
}

/// One shard's lifecycle. All fields are guarded by the supervisor
/// mutex except `cancel`, which is internally synchronized (attempts
/// poll it lock-free).
struct ShardState {
  enum class Phase { kPending, kRunning, kDone, kPoisoned };

  core::ShardId shard;
  Phase phase = Phase::kPending;
  int attempts = 0;  ///< launches performed (RetryWithBackoff attempts)
  int failures = 0;  ///< distinct failed attempts, the breaker's count
  int hedges = 0;    ///< duplicate launches past the straggler bar
  int in_flight = 0;
  Clock::time_point first_launch;
  ShardOutput output;  ///< valid once phase == kDone
  std::string last_error;
  /// Cancelled when the shard reaches a terminal phase, so a losing
  /// hedge twin (or a hung attempt) stops cooperatively.
  CancelToken cancel;
};

struct Completion {
  size_t index = 0;  ///< into Supervisor::states
  Status status = Status::OK();
  bool hedged = false;
  ShardOutput output;      ///< valid when status.ok()
  int64_t elapsed_ms = 0;  ///< of the winning attempt
};

struct Supervisor {
  ShardGrid grid;
  const ShardMineFn* mine = nullptr;
  const ShardSupervisorConfig* config = nullptr;
  uint64_t state_hash = 0;
  Executor* executor = nullptr;
  std::function<bool(StatusCode)> retryable;

  /// Journal root span of this sweep ("sweep-<n>"); empty without obs.
  std::string span;

  std::mutex mu;
  std::condition_variable cv;
  /// deque: ShardState holds an atomic (the cancel token) and is
  /// neither movable nor copyable; a deque can still grow in place.
  std::deque<ShardState> states;
  std::deque<Completion> completions;
  std::vector<std::future<void>> futures;
  std::vector<int64_t> latencies_ms;  ///< successful shard durations
  ShardedSweepStats stats;
  int remaining = 0;  ///< shards not yet terminal
  int in_flight_total = 0;
};

/// Where cell `shard`'s partial lives under `dir`.
std::string PartialPath(const std::string& dir, core::ShardId shard) {
  return dir + "/partial-d" + std::to_string(shard.day) + "-r" +
         std::to_string(shard.range_index) + ".snap";
}

/// Partial-file I/O keeps the strict kInternal-only retry class: a parse
/// or deadline failure is not transient I/O.
RetryPolicy PartialIoPolicy(const ShardSupervisorConfig& config) {
  RetryPolicy policy = config.retry;
  policy.retryable = nullptr;
  return policy;
}

/// Journal span of one shard cell under the sweep's root span.
std::string ShardSpan(const Supervisor& sup, const ShardState& state) {
  return sup.span + "/d" + std::to_string(state.shard.day) + ".r" +
         std::to_string(state.shard.range_index);
}

/// Appends one event to the sweep's journal; no-op without obs. The
/// journal has its own (independent) mutex, so emitting while holding
/// the supervisor mutex cannot invert a lock order.
void JournalEmit(const Supervisor& sup, std::string_view span,
                 std::string_view event,
                 std::vector<obs::JournalField> fields = {}) {
  if (sup.config->obs != nullptr) {
    sup.config->obs->journal().Emit(span, event, fields);
  }
}

/// Marks a shard terminal. Caller holds the mutex.
void FinishLocked(Supervisor* sup, ShardState* state,
                  ShardState::Phase terminal) {
  state->phase = terminal;
  state->cancel.Cancel();
  --sup->remaining;
  if (terminal == ShardState::Phase::kDone) {
    ++sup->stats.shards_completed;
    obs::Count(sup->config->obs, obs::Metric::kShardsCompleted);
    JournalEmit(*sup, ShardSpan(*sup, *state), "shard_done",
                {obs::JournalField::Num("attempts", state->attempts),
                 obs::JournalField::Num("failures", state->failures),
                 obs::JournalField::Num("hedges", state->hedges)});
  } else {
    ++sup->stats.shards_poisoned;
    obs::Count(sup->config->obs, obs::Metric::kShardsPoisoned);
    JournalEmit(*sup, ShardSpan(*sup, *state), "shard_poisoned",
                {obs::JournalField::Num("attempts", state->attempts),
                 obs::JournalField::Num("failures", state->failures),
                 obs::JournalField::Str("last_error", state->last_error)});
  }
  sup->cv.notify_all();
}

/// Waits cooperatively: wakes every millisecond to poll the shard's
/// cancel token and the attempt deadline. Returns OK after `wait_ms`
/// uninterrupted milliseconds.
Status CooperativeWait(const ShardState& state, Clock::time_point start,
                       int64_t deadline_ms, int64_t wait_ms) {
  const Clock::time_point until =
      Clock::now() + std::chrono::milliseconds(wait_ms);
  while (Clock::now() < until) {
    if (state.cancel.cancelled()) {
      return Status::Cancelled("shard attempt cancelled mid-wait");
    }
    if (deadline_ms > 0 && ElapsedMs(start) > deadline_ms) {
      return Status::DeadlineExceeded("shard deadline tripped mid-wait");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::OK();
}

/// One attempt of one shard: chaos injection, the mine itself, then the
/// serialize → (maybe corrupt) → parse validation round-trip every
/// surviving model must pass before it may merge. On success stores the
/// validated model and payload into *out.
Status AttemptShard(Supervisor* sup, ShardState* state, bool hedged,
                    ShardOutput* out) {
  const ShardSupervisorConfig& config = *sup->config;
  int attempt_no = 0;
  {
    std::lock_guard<std::mutex> lock(sup->mu);
    // Terminal shard: a retry loop or hedge twin that outlived the
    // decision. Cancelled is outside every retryable class, so the
    // enclosing RetryWithBackoff stops immediately.
    if (state->phase != ShardState::Phase::kRunning) {
      return Status::Cancelled("shard already settled");
    }
    attempt_no = ++state->attempts;
    ++sup->stats.attempts;
  }
  obs::Count(config.obs, obs::Metric::kShardAttempts);
  const Clock::time_point start = Clock::now();
  // Per-attempt journal span: "<sweep>/d<day>.r<range>/a<attempt>". The
  // attempt opens with shard_attempt and, unless it was settled
  // elsewhere, closes with shard_attempt_failed or shard_attempt_done,
  // which carry its duration.
  const std::string attempt_span =
      ShardSpan(*sup, *state) + "/a" + std::to_string(attempt_no);
  JournalEmit(*sup, attempt_span, "shard_attempt",
              {obs::JournalField::Flag("hedged", hedged)});

  auto fail = [&](Status status) {
    bool tripped = false;
    {
      std::lock_guard<std::mutex> lock(sup->mu);
      ++state->failures;
      ++sup->stats.failures;
      state->last_error = std::string(status.message());
      // Circuit breaker: too many distinct failures quarantines the
      // shard for good — no retry loop will relaunch it (the entry
      // check above sees kPoisoned and bails).
      if (state->failures >= config.breaker_threshold &&
          state->phase == ShardState::Phase::kRunning) {
        ++sup->stats.breaker_trips;
        tripped = true;
        JournalEmit(*sup, ShardSpan(*sup, *state), "breaker_trip",
                    {obs::JournalField::Num("failures", state->failures)});
        FinishLocked(sup, state, ShardState::Phase::kPoisoned);
      }
    }
    obs::Count(config.obs, obs::Metric::kShardFailures);
    if (tripped) obs::Count(config.obs, obs::Metric::kShardBreakerTrips);
    JournalEmit(*sup, attempt_span, "shard_attempt_failed",
                {obs::JournalField::Str("code", StatusCodeName(status.code())),
                 obs::JournalField::Str("error", status.message()),
                 obs::JournalField::Num("dur_ns", ElapsedNs(start))});
    return status;
  };

  // Chaos: the injector decides how this attempt misbehaves.
  sim::ShardFault fault = sim::ShardFault::kNone;
  int64_t fault_slow_ms = 0;
  if (config.faults != nullptr) {
    fault = config.faults->OnAttempt(state->shard.day,
                                     state->shard.range_index, attempt_no);
    if (const sim::ShardFaultSpec* spec = config.faults->SpecFor(
            state->shard.day, state->shard.range_index)) {
      fault_slow_ms = spec->slow_ms;
    }
  }
  switch (fault) {
    case sim::ShardFault::kFailTransient:
      return fail(Status::Internal("injected transient fault (attempt " +
                                   std::to_string(attempt_no) + ")"));
    case sim::ShardFault::kHang: {
      // Never finishes on its own: wait until the deadline (or the
      // supervisor's cancel) trips. Without a deadline the hang is
      // bounded by slow_ms so a misconfigured test cannot wedge.
      const int64_t bound = config.shard_deadline_ms > 0
                                ? config.shard_deadline_ms + 1
                                : std::max<int64_t>(fault_slow_ms, 1);
      const Status waited = CooperativeWait(*state, start,
                                            config.shard_deadline_ms, bound);
      if (!waited.ok() && waited.code() == StatusCode::kCancelled) {
        return waited;  // the shard settled elsewhere; not a failure
      }
      return fail(Status::DeadlineExceeded(
          "injected hang outlived the shard deadline (attempt " +
          std::to_string(attempt_no) + ")"));
    }
    case sim::ShardFault::kSlow: {
      const Status waited = CooperativeWait(*state, start,
                                            config.shard_deadline_ms,
                                            std::max<int64_t>(fault_slow_ms, 1));
      if (!waited.ok()) {
        if (waited.code() == StatusCode::kCancelled) return waited;
        return fail(std::move(waited));
      }
      break;  // then mine normally — slow, not wrong
    }
    case sim::ShardFault::kNone:
    case sim::ShardFault::kCorruptModel:
      break;
  }

  ShardContext context;
  context.cancel = &state->cancel;
  context.deadline_ms = config.shard_deadline_ms;
  context.attempt = attempt_no;
  context.hedged = hedged;
  Result<ShardOutput> mined = (*sup->mine)(state->shard, context);
  obs::Observe(config.obs, obs::Metric::kShardAttemptNs, ElapsedNs(start));
  if (!mined.ok()) {
    if (mined.status().code() == StatusCode::kCancelled) {
      return mined.status();  // settled elsewhere; not a failure
    }
    return fail(mined.status());
  }

  // Every surviving model goes through the serialized form — the same
  // bytes a worker process would ship — and must parse back cleanly.
  // This is where a corrupt partial is caught (ParseError, retryable:
  // the model itself is fine, only this copy of it is not).
  core::PartialModel part;
  part.shard = state->shard;
  part.num_days = sup->grid.num_days;
  part.num_ranges = sup->grid.num_ranges;
  part.state_hash = sup->state_hash;
  part.model = std::move(mined.value().model);
  part.payload = std::move(mined.value().payload);
  std::string bytes = core::PartialModelBytes(part);
  if (fault == sim::ShardFault::kCorruptModel) {
    bytes[bytes.size() / 2] ^= 0x5A;  // deterministic torn-write stand-in
  }
  Result<core::PartialModel> parsed =
      core::ParsePartialModelBytes(std::move(bytes));
  if (!parsed.ok()) return fail(parsed.status());

  if (!config.partial_dir.empty()) {
    const std::string path = PartialPath(config.partial_dir, state->shard);
    const std::string persist_bytes = core::PartialModelBytes(parsed.value());
    const Status written = RetryWithBackoff(
        PartialIoPolicy(config), "shard-partial-write",
        [&] { return WriteSnapshotFile(path, persist_bytes); });
    if (!written.ok()) return fail(written);
  }

  out->model = std::move(parsed.value().model);
  out->payload = std::move(parsed.value().payload);
  JournalEmit(*sup, attempt_span, "shard_attempt_done",
              {obs::JournalField::Num("dur_ns", ElapsedNs(start))});
  return Status::OK();
}

void Launch(Supervisor* sup, size_t index, bool hedged);

/// The body of one submission: a full RetryWithBackoff run over
/// AttemptShard, then one Completion for the supervisor loop.
void RunSubmission(Supervisor* sup, size_t index, bool hedged) {
  ShardState* state = &sup->states[index];
  const std::string op_name =
      "shard-d" + std::to_string(state->shard.day) + "-r" +
      std::to_string(state->shard.range_index) + (hedged ? "-hedge" : "");
  RetryPolicy policy = sup->config->retry;
  if (!policy.retryable) policy.retryable = sup->retryable;

  const Clock::time_point start = Clock::now();
  ShardOutput output;
  const Status final = RetryWithBackoff(
      policy, op_name, [&] { return AttemptShard(sup, state, hedged, &output); });

  Completion done;
  done.index = index;
  done.status = final;
  done.hedged = hedged;
  done.elapsed_ms = ElapsedMs(start);
  if (final.ok()) done.output = std::move(output);
  {
    std::lock_guard<std::mutex> lock(sup->mu);
    --state->in_flight;
    --sup->in_flight_total;
    sup->completions.push_back(std::move(done));
  }
  sup->cv.notify_all();
}

/// Submits one launch of shard `index`. Caller holds the mutex.
void Launch(Supervisor* sup, size_t index, bool hedged) {
  ShardState* state = &sup->states[index];
  if (state->phase == ShardState::Phase::kPending) {
    state->phase = ShardState::Phase::kRunning;
    state->first_launch = Clock::now();
  }
  ++state->in_flight;
  ++sup->in_flight_total;
  sup->futures.push_back(
      sup->executor->Submit([sup, index, hedged] {
        RunSubmission(sup, index, hedged);
      }));
}

/// Upper estimate of the hedge bar from the completed-shard latencies.
/// Caller holds the mutex.
int64_t HedgeBarMsLocked(const Supervisor& sup) {
  const ShardSupervisorConfig& config = *sup.config;
  std::vector<int64_t> sorted = sup.latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  const double q = std::clamp(config.hedge_quantile, 0.0, 1.0);
  const size_t at = static_cast<size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  const double bar =
      config.hedge_factor * static_cast<double>(sorted[at]);
  return std::max<int64_t>(config.hedge_min_ms, static_cast<int64_t>(bar));
}

/// Handles one finished submission. Caller holds the mutex.
void ProcessCompletionLocked(Supervisor* sup, Completion* done) {
  const ShardSupervisorConfig& config = *sup->config;
  ShardState* state = &sup->states[done->index];
  if (done->status.ok()) {
    if (state->phase == ShardState::Phase::kRunning) {
      state->output = std::move(done->output);
      sup->latencies_ms.push_back(done->elapsed_ms);
      if (done->hedged) {
        ++sup->stats.hedges_won;
        obs::Count(config.obs, obs::Metric::kShardHedgesWon);
      }
      FinishLocked(sup, state, ShardState::Phase::kDone);
    }
    // Else: the losing twin of a hedge also succeeded — identical model
    // (attempts are pure in the shard id), nothing to do.
    return;
  }
  if (state->phase != ShardState::Phase::kRunning) return;
  // A whole backoff run gave up. Retryable class with breaker headroom:
  // go around again (a fresh submission, so the backoff schedule
  // restarts — deliberately; the shard already waited out a full
  // schedule). Anything else — a non-retryable status, e.g.
  // InvalidArgument from the mine itself — poisons immediately: it
  // would fail identically forever.
  const bool retryable = config.retry.retryable
                             ? config.retry.retryable(done->status.code())
                             : sup->retryable(done->status.code());
  if (retryable && state->failures < config.breaker_threshold) {
    ++sup->stats.retries;
    obs::Count(config.obs, obs::Metric::kShardRetries);
    JournalEmit(*sup, ShardSpan(*sup, *state), "shard_retry",
                {obs::JournalField::Num("failures", state->failures),
                 obs::JournalField::Str("error", done->status.message())});
    Launch(sup, done->index, /*hedged=*/false);
    return;
  }
  // Non-retryable: quarantine without burning the remaining breaker
  // budget — this would fail identically forever. (Threshold trips are
  // counted in AttemptShard, where the breaker lives.)
  state->last_error = done->status.message();
  FinishLocked(sup, state, ShardState::Phase::kPoisoned);
}

/// The resume: loads every cell whose partial under `partial_dir` parses
/// with this sweep's grid and state hash, marking it done so it is never
/// launched. A torn or corrupt file is deleted and its cell left pending
/// (mined again); a valid partial of another sweep refuses the whole run
/// with FailedPrecondition. Runs before any launch, so unlocked.
Status LoadPartials(Supervisor* sup) {
  const ShardSupervisorConfig& config = *sup->config;
  for (ShardState& state : sup->states) {
    const std::string path = PartialPath(config.partial_dir, state.shard);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) continue;
    const int64_t read_start_ns = obs::MonotonicNowNs();
    std::string bytes;
    const Status read = RetryWithBackoff(
        PartialIoPolicy(config), "shard-partial-read", [&]() -> Status {
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
    if (parsed.ok() && (parsed.value().state_hash != sup->state_hash ||
                        parsed.value().num_days != sup->grid.num_days ||
                        parsed.value().num_ranges != sup->grid.num_ranges)) {
      return Status::FailedPrecondition(
          path + " belongs to another sweep (state hash " +
          std::to_string(parsed.value().state_hash) + " over a " +
          std::to_string(parsed.value().num_days) + " x " +
          std::to_string(parsed.value().num_ranges) + " grid, this sweep is " +
          std::to_string(sup->state_hash) + " over " +
          std::to_string(sup->grid.num_days) + " x " +
          std::to_string(sup->grid.num_ranges) +
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
      ++sup->stats.partials_discarded;
      obs::Count(config.obs, obs::Metric::kCheckpointPartialsDiscarded);
      JournalEmit(*sup, ShardSpan(*sup, state), "partial_discarded",
                  {obs::JournalField::Str("error", parsed.status().message())});
      continue;
    }
    state.output.model = std::move(parsed.value().model);
    state.output.payload = std::move(parsed.value().payload);
    state.phase = ShardState::Phase::kDone;
    --sup->remaining;
    ++sup->stats.shards_loaded;
    obs::Count(config.obs, obs::Metric::kCheckpointSnapshotsRead);
    JournalEmit(*sup, ShardSpan(*sup, state), "shard_loaded");
  }
  return Status::OK();
}

/// Launches hedge twins for stragglers. Caller holds the mutex.
void MaybeHedgeLocked(Supervisor* sup) {
  const ShardSupervisorConfig& config = *sup->config;
  if (config.max_hedges_per_shard <= 0) return;
  if (sup->latencies_ms.empty() ||
      static_cast<int>(sup->latencies_ms.size()) <
          config.min_hedge_completions) {
    return;
  }
  const int64_t bar = HedgeBarMsLocked(*sup);
  for (size_t i = 0; i < sup->states.size(); ++i) {
    ShardState& state = sup->states[i];
    if (state.phase != ShardState::Phase::kRunning) continue;
    if (state.in_flight == 0) continue;  // between retry rounds
    if (state.hedges >= config.max_hedges_per_shard) continue;
    if (ElapsedMs(state.first_launch) <= bar) continue;
    ++state.hedges;
    ++sup->stats.hedges_launched;
    obs::Count(config.obs, obs::Metric::kShardHedgesLaunched);
    JournalEmit(*sup, ShardSpan(*sup, state), "shard_hedged",
                {obs::JournalField::Num("bar_ms", bar),
                 obs::JournalField::Num("running_ms",
                                        ElapsedMs(state.first_launch))});
    Launch(sup, i, /*hedged=*/true);
  }
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
  if (config.breaker_threshold < 1) {
    return Status::InvalidArgument("breaker_threshold must be >= 1");
  }
  const Clock::time_point sweep_start = Clock::now();
  obs::ResourceProbe::ScopedStage sweep_stage(
      config.obs != nullptr ? &config.obs->probe() : nullptr, "eval/sweep");

  Supervisor sup;
  sup.grid = grid;
  sup.mine = &mine;
  sup.config = &config;
  sup.state_hash = state_hash;
  if (config.obs != nullptr) {
    sup.span = config.obs->journal().BeginRootSpan("sweep");
    JournalEmit(sup, sup.span, "sweep_start",
                {obs::JournalField::Num("num_days", grid.num_days),
                 obs::JournalField::Num("num_ranges", grid.num_ranges),
                 obs::JournalField::Num(
                     "state_hash", static_cast<int64_t>(state_hash))});
  }
  sup.executor =
      config.executor != nullptr ? config.executor : &Executor::Shared();
  sup.retryable = SupervisorRetryable;
  for (int day = 0; day < grid.num_days; ++day) {
    for (int range = 0; range < grid.num_ranges; ++range) {
      sup.states.emplace_back().shard = {day, range};
    }
  }
  sup.remaining = grid.cells();
  if (!config.partial_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.partial_dir, ec);
    if (ec) {
      return Status::Internal("cannot create partial dir " +
                              config.partial_dir + ": " + ec.message());
    }
    LOGMINE_RETURN_IF_ERROR(LoadPartials(&sup));
  }

  {
    std::unique_lock<std::mutex> lock(sup.mu);
    size_t next = 0;
    while (sup.remaining > 0) {
      // First launches, throttled by max_in_flight (retries and hedges
      // are not throttled: they replace capacity a failure released).
      // Cells loaded from their partials are already done.
      while (next < sup.states.size() &&
             (config.max_in_flight <= 0 ||
              sup.in_flight_total < config.max_in_flight)) {
        if (sup.states[next].phase != ShardState::Phase::kPending) {
          ++next;
          continue;
        }
        Launch(&sup, next++, /*hedged=*/false);
      }
      sup.cv.wait_for(
          lock, std::chrono::milliseconds(std::max<int64_t>(config.poll_ms, 1)),
          [&] { return !sup.completions.empty() || sup.remaining == 0; });
      while (!sup.completions.empty()) {
        Completion done = std::move(sup.completions.front());
        sup.completions.pop_front();
        ProcessCompletionLocked(&sup, &done);
      }
      MaybeHedgeLocked(&sup);
    }
  }
  // Every shard is terminal, so no new submissions can appear — but
  // losing hedge twins and cancelled retry loops may still be running,
  // and they touch this stack frame. Drain them all before returning.
  for (size_t i = 0;; ++i) {
    std::future<void> pending;
    {
      std::lock_guard<std::mutex> lock(sup.mu);
      if (i >= sup.futures.size()) break;
      pending = std::move(sup.futures[i]);
    }
    pending.wait();
  }

  ShardedSweepResult result;
  result.state_hash = state_hash;
  std::vector<core::PartialModel> parts;
  for (ShardState& state : sup.states) {
    ShardReport report;
    report.shard = state.shard;
    report.covered = state.phase == ShardState::Phase::kDone;
    report.poisoned = state.phase == ShardState::Phase::kPoisoned;
    report.attempts = state.attempts;
    report.failures = state.failures;
    report.hedges = state.hedges;
    report.last_error = state.last_error;
    if (state.phase == ShardState::Phase::kDone) {
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
  result.stats = sup.stats;

  if (parts.empty()) {
    JournalEmit(sup, sup.span, "sweep_end",
                {obs::JournalField::Str("outcome", "failed"),
                 obs::JournalField::Num("shards_poisoned",
                                        sup.stats.shards_poisoned),
                 obs::JournalField::Num("dur_ns", ElapsedNs(sweep_start))});
    if (config.obs != nullptr) {
      // Best-effort: the sweep's failure status stands regardless of
      // whether the bundle made it to disk.
      (void)obs::CapturePostmortem(config.postmortem, config.obs,
                                   "sweep_failed", sup.span, state_hash);
    }
    return Status::Internal(
        "sharded sweep failed: all " + std::to_string(grid.cells()) +
        " shards poisoned (last error: " +
        (sup.states.empty() ? std::string()
                            : sup.states.front().last_error) +
        ")");
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
        sup, sup.span, "sweep_end",
        {obs::JournalField::Str("outcome", SweepOutcomeName(result.outcome)),
         obs::JournalField::Num("shards_completed",
                                sup.stats.shards_completed),
         obs::JournalField::Num("shards_poisoned", sup.stats.shards_poisoned),
         obs::JournalField::Num("shards_loaded", sup.stats.shards_loaded),
         obs::JournalField::Num(
             "coverage_permille",
             static_cast<int64_t>(result.merged.coverage.fraction() *
                                  1000.0)),
         obs::JournalField::Num("dur_ns", ElapsedNs(sweep_start))});
    if (result.outcome == SweepOutcome::kDegraded) {
      (void)obs::CapturePostmortem(config.postmortem, config.obs,
                                   "sweep_degraded", sup.span, state_hash);
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

/// Shared front of every binding: a settled shard does not mine, and a
/// shard outside the dataset is a caller bug, not a transient.
Status CheckShard(const Dataset& dataset, core::ShardId shard,
                  const ShardContext& context) {
  if (context.cancel != nullptr && context.cancel->cancelled()) {
    return Status::Cancelled("shard cancelled before mining");
  }
  if (shard.day < 0 || shard.day >= dataset.num_days()) {
    return Status::InvalidArgument("shard day " + std::to_string(shard.day) +
                                   " outside the dataset");
  }
  return Status::OK();
}

}  // namespace

ShardMineFn MakeL1ShardMiner(const Dataset& dataset,
                             const core::L1Config& config, int num_ranges) {
  return [&dataset, config, num_ranges](
             core::ShardId shard,
             const ShardContext& context) -> Result<ShardOutput> {
    LOGMINE_RETURN_IF_ERROR(CheckShard(dataset, shard, context));
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
  return [&dataset, config](core::ShardId shard,
                            const ShardContext& context) -> Result<ShardOutput> {
    LOGMINE_RETURN_IF_ERROR(CheckShard(dataset, shard, context));
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
  return [&dataset, config](core::ShardId shard,
                            const ShardContext& context) -> Result<ShardOutput> {
    LOGMINE_RETURN_IF_ERROR(CheckShard(dataset, shard, context));
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
  const ShardGrid grid{dataset.num_days(), std::max(supervisor.num_ranges, 1)};
  return RunShardedSweep(
      grid, MakeL1ShardMiner(dataset, config, grid.num_ranges), supervisor,
      SweepStateHash(dataset, Technique::kL1, core::ConfigFingerprint(config),
                     grid.num_ranges));
}

}  // namespace logmine::eval
