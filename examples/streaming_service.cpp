// The streaming mining service end to end: feed a simulated day of
// logs hour by hour, watch generations publish, query the live model,
// then feed it a bad day — a malformed hour, an hour sent twice, a
// consumer that stops stepping while the clock runs, a process that
// dies — and watch the service quarantine, reject, shed, degrade and
// recover instead of falling over (DESIGN.md §13). Exits non-zero when
// any stage fails, the bad day's counts differ from what was fed, or
// the state directory ends with a leaked or missing file.
//
//   ./streaming_service [--scale=0.05] [--seed=7]

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "eval/dataset.h"
#include "log/filter.h"
#include "serve/streaming_service.h"
#include "util/cli.h"

namespace {

using namespace logmine;

struct ReplayCounts {
  int64_t rejected = 0;   ///< clock regressions: hours already ingested
  int64_t processed = 0;  ///< batches the service worked through
};

/// Feeds the dataset to `service` as a deployment would see it: split on
/// the service's epoch grid and submitted hour by hour in time order,
/// draining after each submission.
Result<ReplayCounts> Replay(const eval::Dataset& dataset,
                            serve::StreamingMiningService* service) {
  ReplayCounts counts;
  const TimeMs epoch_length = service->config().window.epoch_length;
  for (int day = 0; day < dataset.num_days(); ++day) {
    LOGMINE_ASSIGN_OR_RETURN(
        std::vector<serve::EpochBatch> batches,
        serve::SplitIntoEpochBatches(dataset.store, dataset.day_begin(day),
                                     dataset.day_end(day), epoch_length));
    for (serve::EpochBatch& batch : batches) {
      if (service->SubmitBatch(std::move(batch)).outcome ==
          serve::SubmitOutcome::kRejectedClockRegression) {
        ++counts.rejected;
      }
      LOGMINE_ASSIGN_OR_RETURN(const int processed, service->Drain());
      counts.processed += processed;
    }
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  // 1. One simulated day of HUG-style logs.
  eval::DatasetConfig dataset_config;
  dataset_config.scenario.seed =
      static_cast<uint64_t>(flags.GetInt("seed", 7));
  dataset_config.simulation.seed = dataset_config.scenario.seed + 1;
  dataset_config.simulation.scale = flags.GetDouble("scale", 0.05);
  dataset_config.simulation.num_days = 1;
  auto dataset_or = eval::BuildDataset(dataset_config);
  if (!dataset_or.ok()) {
    std::cerr << dataset_or.status() << "\n";
    return 1;
  }
  const eval::Dataset dataset = std::move(dataset_or).value();
  std::cout << "Corpus: " << dataset.store.size() << " logs over "
            << dataset.num_days() << " day(s)\n\n";

  auto base_config = [&] {
    serve::ServiceConfig config;
    config.window.epoch_length = kMillisPerHour;
    config.window.window_epochs = 6;
    config.window.l1.minlogs = 6;
    config.window.vocabulary = dataset.vocabulary;
    config.entry_owner = dataset.entry_owner;
    config.max_queue_batches = 4;
    return config;
  };

  // 2. The calm day: every hour ingests, every hour publishes.
  {
    auto service_or = serve::StreamingMiningService::Create(base_config());
    if (!service_or.ok()) {
      std::cerr << service_or.status() << "\n";
      return 1;
    }
    serve::StreamingMiningService& service = *service_or.value();
    auto replay = Replay(dataset, &service);
    if (!replay.ok()) {
      std::cerr << replay.status() << "\n";
      return 1;
    }
    const serve::HealthReport health = service.Health();
    std::cout << "Calm replay: " << replay.value().processed
              << " epochs processed, generation " << health.generation
              << ", health " << serve::HealthStateName(health.state)
              << "\n";

    // Query the live model: who is hit when a provider dies?
    if (!dataset.entry_owner.empty()) {
      const std::string provider = dataset.entry_owner.begin()->second;
      auto impact = service.ImpactOf(provider);
      if (impact.ok()) {
        std::cout << "ImpactOf(" << provider << ") [generation "
                  << impact.value().generation << "]:";
        for (const std::string& component : impact.value().components) {
          std::cout << " " << component;
        }
        std::cout << "\n\n";
      }
    }
  }

  // 3. A bad day, every fault a real input: hour 3 arrives malformed
  //    (its records never indexed), hour 5 is sent twice, the consumer
  //    stops stepping for hours 8-12 while a manual clock runs on (the
  //    queue of 4 sheds hours 8 and 9), and the process dies right after
  //    hour 14 is persisted.
  const std::filesystem::path state_dir =
      std::filesystem::temp_directory_path() / "logmine_streaming_example";
  std::filesystem::remove_all(state_dir);
  std::filesystem::create_directories(state_dir);

  auto clock = std::make_shared<int64_t>(0);
  serve::ServiceConfig chaos_config = base_config();
  chaos_config.state_path = (state_dir / "state.snapshot").string();
  chaos_config.now_ms = [clock] { return *clock; };

  auto service_or = serve::StreamingMiningService::Create(chaos_config);
  if (!service_or.ok()) {
    std::cerr << service_or.status() << "\n";
    return 1;
  }
  serve::StreamingMiningService& service = *service_or.value();
  auto batches = serve::SplitIntoEpochBatches(
      dataset.store, dataset.day_begin(0), dataset.day_end(0), kMillisPerHour);
  if (!batches.ok() || batches.value().size() < 15) {
    std::cerr << "the bad day needs 15 hourly batches\n";
    return 1;
  }
  serve::HealthState backlog_health = serve::HealthState::kStarting;
  for (int hour = 0; hour <= 14; ++hour) {
    serve::EpochBatch& batch = batches.value()[static_cast<size_t>(hour)];
    if (hour == 3) batch.records = LogStore();
    if (hour == 5) {
      service.SubmitBatch({batch.begin, batch.end,
                           SliceByTime(batch.records, batch.begin, batch.end)});
    }
    service.SubmitBatch(std::move(batch));
    *clock += 2'000;
    if (hour >= 8 && hour <= 12) {
      backlog_health = service.Health().state;
      continue;
    }
    if (auto drained = service.Drain(); !drained.ok()) {
      std::cerr << drained.status() << "\n";
      return 1;
    }
  }
  const serve::ServiceStats stats = service.stats();
  std::cout << "Bad day up to hour 14: " << stats.epochs_ingested
            << " epochs ingested, " << stats.batches_poisoned
            << " poisoned, " << stats.clock_regressions
            << " replayed hour rejected, " << stats.batches_shed
            << " shed; health during the backlog: "
            << serve::HealthStateName(backlog_health) << "\n";
  if (stats.batches_poisoned != 1 || stats.clock_regressions != 1 ||
      stats.batches_shed != 2 ||
      backlog_health != serve::HealthState::kDegraded) {
    std::cerr << "expected one quarantined batch, one rejected replay, two "
                 "shed batches and a degraded backlog\n";
    return 1;
  }
  service_or.value().reset();  // the process dies

  // 4. Recovery: rebuild from the snapshot and replay the whole day
  //    blindly — already-ingested hours bounce off the watermark, the
  //    rest continue exactly where the dead process stopped.
  auto recovered_or = serve::StreamingMiningService::Create(chaos_config);
  if (!recovered_or.ok()) {
    std::cerr << recovered_or.status() << "\n";
    return 1;
  }
  serve::StreamingMiningService& recovered = *recovered_or.value();
  std::cout << "Recovered from snapshot: " << std::boolalpha
            << recovered.recovered() << ", serving generation "
            << recovered.Health().generation << " again\n";
  auto resumed = Replay(dataset, &recovered);
  if (!resumed.ok()) {
    std::cerr << resumed.status() << "\n";
    return 1;
  }
  const serve::HealthReport final_health = recovered.Health();
  std::cout << "Resumed replay: " << resumed.value().rejected
            << " already-ingested hours rejected, "
            << resumed.value().processed
            << " fresh epochs processed, final generation "
            << final_health.generation << ", health "
            << serve::HealthStateName(final_health.state) << "\n";
  const auto model = recovered.CurrentModel();
  if (final_health.state != serve::HealthState::kHealthy || model == nullptr ||
      model->models.window_end != dataset.day_end(0)) {
    std::cerr << "the resumed service did not catch up with the day\n";
    return 1;
  }

  // 5. No leaked or missing state files: the state directory holds the
  //    head plus one file per epoch of the final window, every hour of
  //    which the resumed replay ingested.
  std::set<std::string> expected = {"state.snapshot"};
  for (TimeMs begin = model->models.window_begin;
       begin < model->models.window_end; begin += kMillisPerHour) {
    expected.insert("state.snapshot.epoch." + std::to_string(begin));
  }
  std::set<std::string> found;
  for (const auto& entry : std::filesystem::directory_iterator(state_dir)) {
    found.insert(entry.path().filename().string());
  }
  std::filesystem::remove_all(state_dir);
  std::cout << "State files: " << found.size() << " (head + "
            << found.size() - 1 << " epochs)\n";
  if (found != expected) {
    for (const std::string& name : found) {
      if (expected.count(name) == 0) std::cerr << "leaked: " << name << "\n";
    }
    for (const std::string& name : expected) {
      if (found.count(name) == 0) std::cerr << "missing: " << name << "\n";
    }
    return 1;
  }
  return 0;
}
