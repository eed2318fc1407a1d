#ifndef LOGMINE_SERVE_STREAMING_SERVICE_H_
#define LOGMINE_SERVE_STREAMING_SERVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/model_tracker.h"
#include "obs/introspect.h"
#include "obs/obs.h"
#include "obs/postmortem.h"
#include "serve/model_publisher.h"
#include "serve/sliding_window.h"
#include "util/result.h"

namespace logmine::serve {

/// The service's degradation ladder, driven by time since the last
/// successful publish: a service that cannot refresh its model keeps
/// answering queries from the newest generation it has (stale-serving
/// beats erroring), but tells its callers how old that model is.
enum class HealthState : uint32_t {
  kStarting = 0,   ///< no generation published yet
  kHealthy,        ///< published within degraded_after_ms
  kDegraded,       ///< published within stale_after_ms
  kStaleServing,   ///< older than stale_after_ms, still serving
};

/// Stable name for logs and test output (e.g. "stale-serving").
std::string_view HealthStateName(HealthState state);

/// What happened to one submitted batch.
enum class SubmitOutcome : uint32_t {
  kAccepted = 0,
  /// The queue was full: the *oldest* queued batch was shed to make
  /// room — under overload the freshest data wins, the model just
  /// skips an hour (an empty slot), and the service keeps serving.
  kAcceptedShedOldest,
  /// The batch starts before an already-ingested epoch (upstream clock
  /// regression / replay); rejected without touching the window.
  kRejectedClockRegression,
};

struct SubmitResult {
  SubmitOutcome outcome = SubmitOutcome::kAccepted;
  size_t queue_depth = 0;  ///< after the submission
};

/// What one Step() call did.
enum class StepOutcome : uint32_t {
  kIdle = 0,    ///< queue empty
  kIngested,    ///< one epoch ingested, no publish due
  kPublished,   ///< one epoch ingested and a new generation published
  kPoisoned,    ///< the batch was quarantined; the service keeps serving
};

/// Operational counters (in-memory only — recovery starts them fresh;
/// everything correctness-relevant lives in the persisted state).
struct ServiceStats {
  int64_t batches_submitted = 0;
  int64_t batches_shed = 0;
  int64_t batches_poisoned = 0;
  int64_t clock_regressions = 0;
  int64_t epochs_ingested = 0;
  int64_t generations_published = 0;
  int64_t queries_served = 0;
  int64_t snapshots_written = 0;
  int64_t health_transitions = 0;
};

struct HealthReport {
  HealthState state = HealthState::kStarting;
  int64_t generation = 0;         ///< 0 = none published
  int64_t ms_since_publish = -1;  ///< -1 = never published
  size_t queue_depth = 0;
  int64_t shed_total = 0;
};

struct QueryResult {
  int64_t generation = 0;
  /// Health at answer time — a stale-serving answer is still an answer,
  /// but the caller can see it came from an old model.
  HealthState health = HealthState::kStarting;
  std::set<std::string> components;
};

struct ServiceConfig {
  SlidingWindowConfig window;
  core::ModelTrackerConfig tracker;
  /// Vocabulary entry id -> providing application; when non-empty, L3
  /// pairs become directed edges in the query graph (see
  /// BuildQueryGraph).
  std::map<std::string, std::string> entry_owner;
  /// Bounded ingest queue: a submission beyond this sheds the oldest
  /// queued batch (see SubmitOutcome::kAcceptedShedOldest).
  size_t max_queue_batches = 8;
  /// Publish a new generation every this many ingested epochs.
  int publish_every_epochs = 1;
  /// Health thresholds on time since the last publish.
  int64_t degraded_after_ms = 5'000;
  int64_t stale_after_ms = 30'000;
  /// Crash-safe state; empty = in-memory only (no recovery). The path
  /// names the head file — service counters, watermark, window name
  /// tables and retained epoch begins, tracker, current generation —
  /// and each retained epoch is its own file beside it,
  /// "<state_path>.epoch.<begin ms>". Create deletes any epoch file
  /// there that the head does not list.
  std::string state_path;
  /// Injectable clock (milliseconds, monotonic) driving the staleness
  /// watchdog — tests substitute a manual clock; the default reads
  /// steady_clock.
  std::function<int64_t()> now_ms;
  /// Metrics/trace sink; nullptr = the ambient global context. With a
  /// context the service also journals every epoch / publish /
  /// quarantine / shed / health boundary under one "serve-<n>" root
  /// span of the context's journal.
  obs::ObsContext* obs = nullptr;
  /// Dump-on-failure: quarantines and health-ladder regressions capture
  /// a postmortem bundle into `postmortem.dir` (empty = disabled; needs
  /// an obs context). See obs/postmortem.h.
  obs::PostmortemOptions postmortem;
  /// When non-empty, Create binds a live introspection endpoint (an
  /// AF_UNIX line-protocol server, obs/introspect.h) at this path,
  /// serving STATUSZ / METRICS / HEALTH / JOURNAL TAIL over the
  /// service's obs context. Requires an obs context.
  std::string introspection_socket;
};

/// The overload-resilient streaming mining service: feeds epoch batches
/// through the sliding-window miner, publishes immutable model
/// generations through an atomic pointer swap, and degrades gracefully
/// — shedding load, quarantining poison, stale-serving — instead of
/// erroring.
///
/// Threading: SubmitBatch, the query methods, Health and stats are
/// thread-safe and may run concurrently with Step. Step itself is
/// internally serialized (one batch is processed at a time); call it
/// from your own loop.
///
/// Crash protocol (state_path set): every successful Step persists
/// *before* the in-memory generation swap, in three moves — the new
/// epoch's observables as their own atomic CRC snapshot, then the head
/// snapshot (counters, watermark, name tables, the list of retained
/// epochs, tracker, the serialized current generation), then deleting
/// the file of the epoch that aged out. An epoch file is never
/// rewritten, so a step writes one epoch, not the window. Recovery
/// loads exactly the epochs the head lists (a listed file missing or
/// damaged is an error) and deletes every other epoch file as a stray:
/// one torn by a crash before the head moved lies past the watermark,
/// and its batch is resubmitted. A process killed at any instant
/// therefore recovers to a state from which re-feeding the unprocessed
/// batches produces byte-identical files and generations to a run that
/// never crashed (the chaos suite's identity check). Destroying the
/// service after any Step and calling Create again on the same
/// `state_path` is such a crash: the disk already holds that Step.
class StreamingMiningService {
 public:
  /// Builds the service; when `state_path` holds a head, recovers from
  /// it and the epoch files it lists (FailedPrecondition if it was
  /// written under a different config fingerprint — serving under a
  /// silently changed config is the one thing recovery must never do;
  /// ParseError on damage, NotFound for a listed epoch file that is
  /// gone). Epoch files the head does not list are deleted.
  static Result<std::unique_ptr<StreamingMiningService>> Create(
      ServiceConfig config);

  ~StreamingMiningService();

  /// Enqueues one epoch batch; never blocks, never errors — overload
  /// sheds the oldest queued batch instead (counted, reported).
  SubmitResult SubmitBatch(EpochBatch batch);

  /// Processes at most one queued batch (ingest + publish when due +
  /// persist). Only an unrecoverable error (a failed persist or window
  /// mine) returns a non-OK status; a poison batch is a normal outcome.
  Result<StepOutcome> Step();

  /// Steps until the queue is idle; returns the number of batches
  /// processed.
  Result<int> Drain();

  /// The latest generation; nullptr before the first publish.
  std::shared_ptr<const ModelGeneration> CurrentModel() const;

  HealthReport Health() const;
  ServiceStats stats() const;
  size_t queue_depth() const;
  /// True when Create restored state from a head file.
  bool recovered() const { return recovered_; }
  uint64_t config_fingerprint() const;
  const ServiceConfig& config() const { return config_; }
  /// The live introspection endpoint; nullptr unless
  /// `introspection_socket` was configured.
  const obs::IntrospectionServer* introspection() const {
    return introspection_.get();
  }

  /// Direct dependents of `component` ("what depends on S?").
  Result<QueryResult> WhatDependsOn(const std::string& component);
  /// Transitive impact set of `component` failing.
  Result<QueryResult> ImpactOf(const std::string& component);

 private:
  struct QueuedBatch {
    int64_t index = 0;  ///< submission index, names the journal span
    EpochBatch batch;
  };

  explicit StreamingMiningService(ServiceConfig config);

  int64_t NowMs() const;
  /// Persists the step (no-op without a state_path): the files of
  /// epochs not yet on disk, then the head, then deletes the files of
  /// epochs that aged out.
  Status Persist();
  /// Restores state from the head `bytes` and the epoch files it lists;
  /// called by Create.
  Status Recover(const std::string& bytes);
  /// The file of the epoch beginning at `begin`.
  std::string EpochPath(TimeMs begin) const;
  /// Deletes every epoch file of `state_path` that `epoch_files_` does
  /// not list; returns how many it deleted. Called by Create.
  int RemoveStrayEpochFiles();
  /// Times AnswerQuery into serve.query_ns.
  Result<QueryResult> Query(const std::string& component, bool transitive);
  Result<QueryResult> AnswerQuery(const std::string& component,
                                  bool transitive);
  /// Health at `now`; updates the transition counter under stats_mu_ and
  /// journals the transition. Stores the publish age the state was
  /// derived from into `*ms_since_publish` when given (-1 = never
  /// published).
  HealthState ObserveHealth(int64_t now,
                            int64_t* ms_since_publish = nullptr) const;
  /// Step-time watchdog: a health-ladder regression (healthy ->
  /// degraded/stale) journals the slide and captures a postmortem
  /// bundle. Never runs on the query path.
  void CheckHealthRegression();

  ServiceConfig config_;
  obs::ObsContext* obs_ = nullptr;  ///< effective sink
  std::string journal_span_;        ///< "serve-<n>"; empty without obs

  std::unique_ptr<SlidingWindowMiner> miner_;  ///< guarded by step_mu_
  core::ModelTracker tracker_;                 ///< guarded by step_mu_
  ModelPublisher publisher_;

  mutable std::mutex queue_mu_;
  std::deque<QueuedBatch> queue_;
  int64_t submit_index_ = 0;
  /// Begin of the newest *accepted* epoch (clock-regression guard);
  /// reset to the ingested watermark on recovery so unprocessed batches
  /// can be resubmitted.
  TimeMs submit_watermark_ = INT64_MIN;

  std::mutex step_mu_;
  TimeMs ingest_watermark_ = INT64_MIN;  ///< newest *ingested* epoch begin
  int epochs_since_publish_ = 0;
  int64_t next_generation_number_ = 1;
  std::string generation_bytes_;  ///< serialized current generation
  /// Begins of the epoch files on disk that the head lists or is
  /// about to list, oldest first.
  std::vector<TimeMs> epoch_files_;
  /// Health observed by the previous Step (the regression watchdog's
  /// baseline); guarded by step_mu_.
  HealthState step_health_ = HealthState::kStarting;

  mutable std::mutex stats_mu_;
  mutable ServiceStats stats_;
  int64_t last_publish_ms_ = -1;
  mutable HealthState last_health_ = HealthState::kStarting;

  bool recovered_ = false;

  /// Declared last (and reset first in the destructor): its server
  /// thread calls back into the service, so it must die before any
  /// other member.
  std::unique_ptr<obs::IntrospectionServer> introspection_;
};

}  // namespace logmine::serve

#endif  // LOGMINE_SERVE_STREAMING_SERVICE_H_
