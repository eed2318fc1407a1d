// Streaming service throughput: replay a simulated multi-day corpus
// through the serve/ path hour by hour and report ingest and publish
// cost per epoch, plus query latency against the live model. The
// interesting comparison is publish cost vs a full batch re-mine: the
// sliding window only pays for aggregating retained epochs.
//
//   ./serve_throughput [--scale=0.2] [--days=2] [--seed=20051206]
//                      [--window=24] [--queue=8] [--publish-every=1]

#include <chrono>
#include <iostream>

#include "bench/bench_common.h"
#include "eval/stream_replay.h"
#include "obs/obs.h"
#include "serve/streaming_service.h"
#include "util/string_util.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace logmine;

  CliFlags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  const eval::Dataset dataset =
      bench::BuildDatasetOrDie(argc, argv, /*default_scale=*/0.2,
                               /*default_days=*/2);

  obs::ObsContext context;
  serve::ServiceConfig config;
  config.window.epoch_length = kMillisPerHour;
  config.window.window_epochs =
      static_cast<int>(flags.GetInt("window", 24));
  config.window.vocabulary = dataset.vocabulary;
  config.entry_owner = dataset.entry_owner;
  config.max_queue_batches =
      static_cast<size_t>(flags.GetInt("queue", 8));
  config.publish_every_epochs =
      static_cast<int>(flags.GetInt("publish-every", 1));
  config.obs = &context;
  auto service_or = serve::StreamingMiningService::Create(config);
  if (!service_or.ok()) {
    std::cerr << service_or.status() << "\n";
    return 1;
  }
  serve::StreamingMiningService& service = *service_or.value();

  const auto start = std::chrono::steady_clock::now();
  auto report_or = eval::ReplayDatasetStream(dataset, &service);
  if (!report_or.ok()) {
    std::cerr << report_or.status() << "\n";
    return 1;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const eval::StreamReplayReport& replay = report_or.value();

  // A round of queries against the final generation, timed.
  const std::string target = dataset.entry_owner.empty()
                                 ? std::string("app")
                                 : dataset.entry_owner.begin()->second;
  constexpr int kQueries = 1000;
  const auto query_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kQueries; ++i) {
    auto result = service.ImpactOf(target);
    if (!result.ok()) {
      std::cerr << result.status() << "\n";
      return 1;
    }
  }
  const double query_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - query_start)
          .count() /
      kQueries;

  const obs::MetricsSnapshot metrics = context.metrics().Snapshot();
  const serve::ServiceStats stats = service.stats();
  // Mean latency per observation, in milliseconds.
  const auto mean_ms = [&](obs::Metric metric) {
    const obs::MetricsSnapshot::Entry* entry =
        metrics.Find(obs::MetricName(metric));
    return entry == nullptr ? 0.0 : entry->sketch.mean() / 1e6;
  };
  const double per_epoch = mean_ms(obs::Metric::kServeIngestNs);
  const double per_publish = mean_ms(obs::Metric::kServePublishNs);

  TablePrinter table({"metric", "value"});
  table.AddRow({"logs replayed", std::to_string(dataset.store.size())});
  table.AddRow({"epochs fed", std::to_string(replay.batches_fed)});
  table.AddRow({"epochs ingested", std::to_string(stats.epochs_ingested)});
  table.AddRow(
      {"generations published", std::to_string(stats.generations_published)});
  table.AddRow({"wall time (s)", FormatDouble(wall_s, 2)});
  table.AddRow({"epochs / s",
                FormatDouble(double(stats.epochs_ingested) / wall_s, 1)});
  table.AddRow({"ingest ms / epoch", FormatDouble(per_epoch, 3)});
  table.AddRow({"publish ms / generation", FormatDouble(per_publish, 3)});
  table.AddRow({"query us (ImpactOf)", FormatDouble(query_us, 1)});
  table.AddRow({"final health",
                std::string(serve::HealthStateName(
                    replay.final_health.state))});
  table.Print(std::cout);
  return 0;
}
