#include "serve/streaming_service.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <utility>
#include <vector>

#include "core/serialization.h"
#include "util/snapshot.h"

namespace logmine::serve {
namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string_view HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kStarting:
      return "starting";
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kStaleServing:
      return "stale-serving";
  }
  return "unknown";
}

StreamingMiningService::StreamingMiningService(ServiceConfig config)
    : config_(std::move(config)),
      obs_(obs::Effective(config_.obs)),
      tracker_(config_.tracker) {
  if (!config_.now_ms) config_.now_ms = SteadyNowMs;
  if (obs_ != nullptr) {
    journal_span_ = obs_->journal().BeginRootSpan("serve");
  }
}

Result<std::unique_ptr<StreamingMiningService>>
StreamingMiningService::Create(ServiceConfig config) {
  if (config.max_queue_batches < 1) {
    return Status::InvalidArgument("max_queue_batches must be >= 1");
  }
  if (config.publish_every_epochs < 1) {
    return Status::InvalidArgument("publish_every_epochs must be >= 1");
  }
  if (config.degraded_after_ms <= 0 ||
      config.stale_after_ms <= config.degraded_after_ms) {
    return Status::InvalidArgument(
        "need 0 < degraded_after_ms < stale_after_ms");
  }
  auto service = std::unique_ptr<StreamingMiningService>(
      new StreamingMiningService(std::move(config)));
  LOGMINE_ASSIGN_OR_RETURN(
      SlidingWindowMiner miner,
      SlidingWindowMiner::Create(service->config_.window));
  service->miner_ =
      std::make_unique<SlidingWindowMiner>(std::move(miner));
  int stray_epoch_files = 0;
  if (!service->config_.state_path.empty()) {
    Result<std::string> bytes =
        ReadFileToString(service->config_.state_path);
    if (bytes.ok()) {
      LOGMINE_RETURN_IF_ERROR(service->Recover(bytes.value()));
    } else if (bytes.status().code() != StatusCode::kNotFound) {
      return bytes.status();
    }
    stray_epoch_files = service->RemoveStrayEpochFiles();
  }
  if (service->obs_ != nullptr) {
    service->obs_->journal().Emit(
        service->journal_span_, "service_start",
        {obs::JournalField::Flag("recovered", service->recovered_),
         obs::JournalField::Num(
             "config_fingerprint",
             static_cast<int64_t>(service->miner_->config_fingerprint())),
         obs::JournalField::Num("stray_epoch_files", stray_epoch_files)});
  }
  if (!service->config_.introspection_socket.empty()) {
    if (service->obs_ == nullptr) {
      return Status::InvalidArgument(
          "introspection_socket requires an obs context "
          "(ServiceConfig::obs or an installed global one)");
    }
    // The health handler runs on the server thread against the live
    // service; the server is reset first in the destructor, so the
    // callback can never outlive its target.
    StreamingMiningService* raw = service.get();
    obs::IntrospectionHandlers handlers =
        obs::MakeObsHandlers(service->obs_, [raw] {
          const HealthReport report = raw->Health();
          std::string line(HealthStateName(report.state));
          line += " generation=" + std::to_string(report.generation);
          line += " ms_since_publish=" +
                  std::to_string(report.ms_since_publish);
          line += " queue_depth=" + std::to_string(report.queue_depth);
          line += " shed=" + std::to_string(report.shed_total);
          return line;
        });
    LOGMINE_ASSIGN_OR_RETURN(
        service->introspection_,
        obs::IntrospectionServer::Start(service->config_.introspection_socket,
                                        std::move(handlers)));
  }
  return service;
}

StreamingMiningService::~StreamingMiningService() {
  // The introspection server's thread calls Health() on this service;
  // join it before any state it reads starts dying.
  introspection_.reset();
}

int64_t StreamingMiningService::NowMs() const { return config_.now_ms(); }

SubmitResult StreamingMiningService::SubmitBatch(EpochBatch batch) {
  SubmitResult result;
  std::lock_guard<std::mutex> lock(queue_mu_);
  const int64_t index = submit_index_++;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.batches_submitted;
  }
  obs::Count(obs_, obs::Metric::kServeBatchesSubmitted);
  // A batch at or before an already-accepted epoch means the upstream
  // clock ran backwards (or replayed). submit_watermark_ >= the ingested
  // watermark always (accepted-at covers ingested, and recovery resets
  // it to the ingested one).
  if (batch.begin <= submit_watermark_) {
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.clock_regressions;
    }
    obs::Count(obs_, obs::Metric::kServeClockRegressions);
    if (obs_ != nullptr) {
      obs_->journal().Emit(
          journal_span_ + "/e" + std::to_string(index), "clock_regression",
          {obs::JournalField::Num("begin_ms", batch.begin),
           obs::JournalField::Num("watermark_ms", submit_watermark_)});
    }
    result.outcome = SubmitOutcome::kRejectedClockRegression;
    result.queue_depth = queue_.size();
    return result;
  }
  submit_watermark_ = batch.begin;
  if (queue_.size() >= config_.max_queue_batches) {
    const int64_t shed_index = queue_.front().index;
    queue_.pop_front();
    obs::Count(obs_, obs::Metric::kServeQueueDepth, -1);
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.batches_shed;
    }
    obs::Count(obs_, obs::Metric::kServeBatchesShed);
    if (obs_ != nullptr) {
      obs_->journal().Emit(
          journal_span_ + "/e" + std::to_string(shed_index), "batch_shed",
          {obs::JournalField::Num("queue_depth",
                                  static_cast<int64_t>(queue_.size()))});
    }
    result.outcome = SubmitOutcome::kAcceptedShedOldest;
  }
  QueuedBatch queued;
  queued.index = index;
  queued.batch = std::move(batch);
  queue_.push_back(std::move(queued));
  result.queue_depth = queue_.size();
  obs::Count(obs_, obs::Metric::kServeQueueDepth, 1);
  return result;
}

Result<StepOutcome> StreamingMiningService::Step() {
  std::lock_guard<std::mutex> step_lock(step_mu_);
  CheckHealthRegression();
  QueuedBatch work;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.empty()) return StepOutcome::kIdle;
    work = std::move(queue_.front());
    queue_.pop_front();
    obs::Count(obs_, obs::Metric::kServeQueueDepth, -1);
  }
  const std::string epoch_span =
      journal_span_ + "/e" + std::to_string(work.index);

  const int64_t aged_before = miner_->epochs_aged_out();
  const obs::StageClock ingest_clock;
  // A malformed batch (an unindexed store, a record outside its epoch) is
  // quarantined: count it, drop it, keep serving the current generation.
  if (!miner_->IngestEpoch(work.batch).ok()) {
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.batches_poisoned;
    }
    obs::Count(obs_, obs::Metric::kServeBatchesPoisoned);
    if (obs_ != nullptr) {
      obs_->journal().Emit(epoch_span, "batch_quarantined");
      (void)obs::CapturePostmortem(config_.postmortem, obs_,
                                   "batch_quarantined", epoch_span,
                                   miner_->config_fingerprint());
    }
    return StepOutcome::kPoisoned;
  }
  ingest_watermark_ = work.batch.begin;
  ++epochs_since_publish_;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.epochs_ingested;
  }
  obs::Count(obs_, obs::Metric::kServeEpochsIngested);
  const int64_t aged = miner_->epochs_aged_out() - aged_before;
  if (aged > 0) obs::Count(obs_, obs::Metric::kServeEpochsAgedOut, aged);
  if (obs_ != nullptr) {
    const obs::StageRecord ingest = ingest_clock.End();
    obs_->metrics().Observe(obs::Metric::kServeIngestNs, ingest.dur_ns);
    obs_->journal().Emit(
        epoch_span, "epoch_ingested", ingest,
        {obs::JournalField::Num("begin_ms", work.batch.begin),
         obs::JournalField::Num("aged_out", aged)});
  }

  const bool publish_due =
      epochs_since_publish_ >= config_.publish_every_epochs;
  std::shared_ptr<ModelGeneration> generation;
  const obs::StageClock publish_clock;
  if (publish_due) {
    LOGMINE_ASSIGN_OR_RETURN(WindowModelSet models, miner_->MineWindow());
    tracker_.Observe(models.combined);
    generation = std::make_shared<ModelGeneration>();
    generation->number = next_generation_number_;
    generation->window_begin = models.window_begin;
    generation->window_end = models.window_end;
    generation->epochs_ingested = miner_->epochs_ingested();
    generation->config_fingerprint = miner_->config_fingerprint();
    generation->models = std::move(models);
    generation->tracker_active = tracker_.ActiveModel();
    generation->graph =
        BuildQueryGraph(generation->models, generation->tracker_active,
                        config_.entry_owner);
    generation_bytes_ = SerializeGeneration(*generation);
    generation->self_crc = Crc32(generation_bytes_);
    ++next_generation_number_;
    epochs_since_publish_ = 0;
    if (obs_ != nullptr) {
      obs_->metrics().Observe(obs::Metric::kServePublishNs,
                              publish_clock.ElapsedNs());
    }
  }

  // Persist-then-swap: the snapshot hits disk (atomically) before any
  // reader can see the new generation, so a crash at any instant leaves
  // a state file from which recovery reproduces exactly what readers
  // were able to observe.
  LOGMINE_RETURN_IF_ERROR(Persist());
  if (generation != nullptr) {
    publisher_.Publish(generation);
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.generations_published;
      last_publish_ms_ = NowMs();
    }
    obs::Count(obs_, obs::Metric::kServeGenerationsPublished);
    if (obs_ != nullptr) {
      // The event's span runs from mining the window to the swap, so it
      // covers the persist that serve.publish_ns leaves out.
      obs_->journal().Emit(
          epoch_span, "generation_published", publish_clock.End(),
          {obs::JournalField::Num("generation", generation->number),
           obs::JournalField::Num("epochs_ingested",
                                  generation->epochs_ingested)});
    }
    return StepOutcome::kPublished;
  }
  return StepOutcome::kIngested;
}

Result<int> StreamingMiningService::Drain() {
  int processed = 0;
  for (;;) {
    LOGMINE_ASSIGN_OR_RETURN(const StepOutcome outcome, Step());
    if (outcome == StepOutcome::kIdle) return processed;
    ++processed;
  }
}

std::shared_ptr<const ModelGeneration> StreamingMiningService::CurrentModel()
    const {
  return publisher_.Current();
}

HealthState StreamingMiningService::ObserveHealth(
    int64_t now, int64_t* ms_since_publish) const {
  HealthState state = HealthState::kStarting;
  HealthState previous = HealthState::kStarting;
  bool transitioned = false;
  int64_t age = -1;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (last_publish_ms_ >= 0) {
      age = now - last_publish_ms_;
      state = age < config_.degraded_after_ms ? HealthState::kHealthy
              : age < config_.stale_after_ms  ? HealthState::kDegraded
                                              : HealthState::kStaleServing;
    }
    if (state != last_health_) {
      previous = last_health_;
      last_health_ = state;
      ++stats_.health_transitions;
      transitioned = true;
    }
  }
  if (ms_since_publish != nullptr) *ms_since_publish = age;
  // Journal the boundary outside stats_mu_: the journal flushes to disk
  // per line, and the query path shares this lock.
  if (transitioned) {
    obs::Count(obs_, obs::Metric::kServeHealthTransitions);
    if (obs_ != nullptr) {
      obs_->journal().Emit(
          journal_span_, "health_transition",
          {obs::JournalField::Str("from", HealthStateName(previous)),
           obs::JournalField::Str("to", HealthStateName(state)),
           obs::JournalField::Num("ms_since_publish", age)});
    }
  }
  return state;
}

void StreamingMiningService::CheckHealthRegression() {
  const HealthState health = ObserveHealth(NowMs());
  // A slide down the ladder from a published state (healthy -> degraded,
  // degraded -> stale-serving, ...) is the "model stopped refreshing"
  // postmortem trigger; climbing back up just resets the baseline.
  if (step_health_ != HealthState::kStarting && health > step_health_ &&
      obs_ != nullptr) {
    (void)obs::CapturePostmortem(config_.postmortem, obs_,
                                 "health_regression", journal_span_,
                                 miner_->config_fingerprint());
  }
  step_health_ = health;
}

HealthReport StreamingMiningService::Health() const {
  HealthReport report;
  // One clock reading, so the state and the age it reports agree.
  report.state = ObserveHealth(NowMs(), &report.ms_since_publish);
  const std::shared_ptr<const ModelGeneration> current = publisher_.Current();
  report.generation = current == nullptr ? 0 : current->number;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    report.shed_total = stats_.batches_shed;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    report.queue_depth = queue_.size();
  }
  return report;
}

ServiceStats StreamingMiningService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

size_t StreamingMiningService::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

uint64_t StreamingMiningService::config_fingerprint() const {
  return miner_->config_fingerprint();
}

Result<QueryResult> StreamingMiningService::Query(const std::string& component,
                                                  bool transitive) {
  // Latency only: a journal line per query would put a flushed disk
  // write on the query path.
  if (obs_ == nullptr) return AnswerQuery(component, transitive);
  const int64_t start_ns = obs::MonotonicNowNs();
  Result<QueryResult> result = AnswerQuery(component, transitive);
  obs_->metrics().Observe(obs::Metric::kServeQueryNs,
                          obs::MonotonicNowNs() - start_ns);
  return result;
}

Result<QueryResult> StreamingMiningService::AnswerQuery(
    const std::string& component, bool transitive) {
  obs::Count(obs_, obs::Metric::kServeQueries);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.queries_served;
  }
  const std::shared_ptr<const ModelGeneration> generation =
      publisher_.Current();
  if (generation == nullptr) {
    return Status::FailedPrecondition("no model generation published yet");
  }
  QueryResult result;
  result.generation = generation->number;
  result.health = ObserveHealth(NowMs());
  result.components = transitive ? generation->graph.ImpactSet(component)
                                 : generation->graph.DependentsOf(component);
  return result;
}

Result<QueryResult> StreamingMiningService::WhatDependsOn(
    const std::string& component) {
  return Query(component, /*transitive=*/false);
}

Result<QueryResult> StreamingMiningService::ImpactOf(
    const std::string& component) {
  return Query(component, /*transitive=*/true);
}

std::string StreamingMiningService::EpochPath(TimeMs begin) const {
  return config_.state_path + ".epoch." + std::to_string(begin);
}

int StreamingMiningService::RemoveStrayEpochFiles() {
  namespace fs = std::filesystem;
  const fs::path state(config_.state_path);
  const std::string prefix = state.filename().string() + ".epoch.";
  std::vector<fs::path> strays;
  std::error_code ec;
  for (fs::directory_iterator it(
           state.has_parent_path() ? state.parent_path() : ".", ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    TimeMs begin = 0;
    const char* first = name.data() + prefix.size();
    const char* last = name.data() + name.size();
    const auto [end, error] = std::from_chars(first, last, begin);
    if (error != std::errc() || end != last) continue;
    if (!std::binary_search(epoch_files_.begin(), epoch_files_.end(),
                            begin)) {
      strays.push_back(it->path());
    }
  }
  int removed = 0;
  for (const fs::path& stray : strays) removed += fs::remove(stray, ec);
  return removed;
}

Status StreamingMiningService::Persist() {
  if (config_.state_path.empty()) return Status::OK();
  // 1. Epoch files: each retained epoch is written once, by the first
  // Persist after its ingest — normally just the newest one.
  const std::vector<TimeMs> begins = miner_->epoch_begins();
  for (size_t i = 0; i < begins.size(); ++i) {
    if (!epoch_files_.empty() && begins[i] <= epoch_files_.back()) continue;
    SnapshotWriter w;
    w.BeginSection("epoch");
    miner_->EncodeEpoch(i, &w);
    w.EndSection();
    LOGMINE_RETURN_IF_ERROR(
        WriteSnapshotFile(EpochPath(begins[i]), std::move(w).Finish()));
    epoch_files_.push_back(begins[i]);
  }
  // 2. The head, which lists only epochs whose files are already down.
  SnapshotWriter w;
  w.BeginSection("service");
  w.PutU64(miner_->config_fingerprint());
  w.PutI64(ingest_watermark_);
  w.PutI64(epochs_since_publish_);
  w.PutI64(next_generation_number_);
  w.EndSection();
  w.BeginSection("window");
  miner_->EncodeHead(&w);
  w.EndSection();
  w.BeginSection("tracker");
  core::EncodeModelTracker(tracker_, &w);
  w.EndSection();
  if (!generation_bytes_.empty()) {
    w.BeginSection("generation");
    w.PutString(generation_bytes_);
    w.EndSection();
  }
  LOGMINE_RETURN_IF_ERROR(
      WriteSnapshotFile(config_.state_path, std::move(w).Finish()));
  // 3. Files of epochs that aged out. Best-effort: a file a crash leaves
  // behind is unlisted, so recovery deletes it.
  while (epoch_files_.front() < begins.front()) {
    std::error_code ec;
    std::filesystem::remove(EpochPath(epoch_files_.front()), ec);
    epoch_files_.erase(epoch_files_.begin());
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.snapshots_written;
  }
  obs::Count(obs_, obs::Metric::kServeStateSnapshotsWritten);
  return Status::OK();
}

Status StreamingMiningService::Recover(const std::string& bytes) {
  LOGMINE_ASSIGN_OR_RETURN(const SnapshotReader reader,
                           SnapshotReader::Parse(bytes));
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor service, reader.Section("service"));
  LOGMINE_ASSIGN_OR_RETURN(const uint64_t fingerprint, service.ReadU64());
  if (fingerprint != miner_->config_fingerprint()) {
    return Status::FailedPrecondition(
        "refusing recovery: state file was written under a different "
        "config (fingerprint mismatch)");
  }
  LOGMINE_ASSIGN_OR_RETURN(ingest_watermark_, service.ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(const int64_t since_publish, service.ReadI64());
  if (since_publish < 0 || since_publish >= config_.publish_every_epochs) {
    return Status::ParseError(
        "persisted epochs_since_publish outside [0, publish_every_epochs)");
  }
  epochs_since_publish_ = static_cast<int>(since_publish);
  LOGMINE_ASSIGN_OR_RETURN(next_generation_number_, service.ReadI64());
  if (next_generation_number_ < 1) {
    return Status::ParseError("persisted generation number below one");
  }
  LOGMINE_RETURN_IF_ERROR(service.ExpectEnd());

  // The head lists the retained epochs; each loads from its own file,
  // and a listed file that is missing or damaged fails recovery.
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor window, reader.Section("window"));
  std::string epoch_bytes;  // the cursor below views it
  auto epoch_payload = [&](TimeMs begin) -> Result<SectionCursor> {
    const std::string path = EpochPath(begin);
    Result<std::string> read = ReadFileToString(path);
    if (!read.ok()) {
      return Status(read.status().code(),
                    "state head lists epoch file " + path + ": " +
                        read.status().message());
    }
    epoch_bytes = std::move(read).value();
    LOGMINE_ASSIGN_OR_RETURN(const SnapshotReader reader,
                             SnapshotReader::Parse(epoch_bytes));
    return reader.Section("epoch");
  };
  LOGMINE_ASSIGN_OR_RETURN(
      SlidingWindowMiner miner,
      SlidingWindowMiner::DecodeState(config_.window, &window, epoch_payload));
  LOGMINE_RETURN_IF_ERROR(window.ExpectEnd());
  if (miner.epochs_retained() == 0 ||
      miner.window_end() - config_.window.epoch_length != ingest_watermark_) {
    return Status::ParseError(
        "persisted watermark is not the newest retained epoch");
  }
  epoch_files_ = miner.epoch_begins();
  *miner_ = std::move(miner);

  LOGMINE_ASSIGN_OR_RETURN(SectionCursor tracker, reader.Section("tracker"));
  LOGMINE_ASSIGN_OR_RETURN(core::ModelTracker restored,
                           core::DecodeModelTracker(&tracker));
  LOGMINE_RETURN_IF_ERROR(tracker.ExpectEnd());
  tracker_ = std::move(restored);

  if (reader.HasSection("generation")) {
    LOGMINE_ASSIGN_OR_RETURN(SectionCursor cursor,
                             reader.Section("generation"));
    LOGMINE_ASSIGN_OR_RETURN(generation_bytes_, cursor.ReadString());
    LOGMINE_RETURN_IF_ERROR(cursor.ExpectEnd());
    LOGMINE_ASSIGN_OR_RETURN(
        ModelGeneration generation,
        ParseGeneration(generation_bytes_, config_.entry_owner));
    if (generation.config_fingerprint != miner_->config_fingerprint()) {
      return Status::FailedPrecondition(
          "refusing recovery: persisted generation carries a different "
          "config fingerprint");
    }
    if (generation.number != next_generation_number_ - 1) {
      return Status::ParseError(
          "persisted generation is not the last one numbered");
    }
    publisher_.Publish(
        std::make_shared<ModelGeneration>(std::move(generation)));
    std::lock_guard<std::mutex> lock(stats_mu_);
    // Recovery is a fresh publish from the reader's perspective: the
    // staleness clock restarts now, and the degradation ladder reflects
    // how long the *recovered* service goes without a newer model.
    last_publish_ms_ = NowMs();
  }
  // Unprocessed batches died with the old process; their epochs are
  // after the ingested watermark, so the feeder may resubmit them.
  submit_watermark_ = ingest_watermark_;
  recovered_ = true;
  obs::Count(obs_, obs::Metric::kServeRecoveries);
  return Status::OK();
}

}  // namespace logmine::serve
