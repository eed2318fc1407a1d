// Live introspection of a streaming mining service under chaos: the
// main thread replays a simulated day through a service, one hour of it
// malformed and another sent twice, while a second thread scrapes the
// service's UNIX-socket introspection endpoint — exactly what an
// external prober would do — printing every health transition it
// observes. At the end, tail query latency (p50/p99/p999 from the
// mergeable sketch), the OpenMetrics scrape, and any postmortem bundle
// the chaos produced are printed (DESIGN.md §14).
//
//   ./obs_introspect [--scale=0.05] [--seed=7]
//
// The socket speaks a newline protocol; while this runs you can also
// scrape it by hand:
//
//   echo HEALTH | socat - UNIX-CONNECT:/tmp/logmine_introspect_<pid>.sock

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "eval/dataset.h"
#include "log/filter.h"
#include "obs/export.h"
#include "obs/introspect.h"
#include "obs/obs.h"
#include "obs/postmortem.h"
#include "serve/streaming_service.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace logmine;

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

  // 2. A service wearing the full observability kit: an obs context
  //    (journal + metrics; each timed event carries its stage record),
  //    a postmortem directory, and the introspection socket.
  const std::filesystem::path work_dir =
      std::filesystem::temp_directory_path() / "logmine_introspect_example";
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);
  const std::string socket_path =
      "/tmp/logmine_introspect_" + std::to_string(::getpid()) + ".sock";

  obs::ObsContext context;
  serve::ServiceConfig config;
  config.window.epoch_length = kMillisPerHour;
  config.window.window_epochs = 6;
  config.window.l1.minlogs = 6;
  config.window.vocabulary = dataset.vocabulary;
  config.entry_owner = dataset.entry_owner;
  config.max_queue_batches = 4;
  config.obs = &context;
  config.postmortem.dir = (work_dir / "postmortems").string();
  config.introspection_socket = socket_path;

  auto service_or = serve::StreamingMiningService::Create(config);
  if (!service_or.ok()) {
    std::cerr << service_or.status() << "\n";
    return 1;
  }
  serve::StreamingMiningService& service = *service_or.value();
  std::cout << "Introspection socket: " << socket_path << "\n"
            << "Run id:               " << context.journal().run_id()
            << "\n\n";

  // 3. The external prober: a thread that knows nothing about this
  //    process except the socket path, scraping HEALTH and printing
  //    every transition.
  std::atomic<bool> stop_scraper{false};
  std::thread scraper([&] {
    std::string last;
    while (!stop_scraper.load()) {
      auto health = obs::IntrospectionQuery(socket_path, "HEALTH");
      if (health.ok()) {
        const std::string state =
            health.value().substr(0, health.value().find(' '));
        if (state != last) {
          std::cout << "  [scraper] health: "
                    << (last.empty() ? "(start)" : last) << " -> "
                    << health.value();
          last = state;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // 4. Replay the day hour by hour, querying the live model as we go so
  //    the query-latency sketch fills up. A deliberately bad day: hour 3
  //    arrives malformed (its records never indexed) and hour 9 is sent
  //    a second time.
  auto batches = serve::SplitIntoEpochBatches(
      dataset.store, dataset.day_begin(0), dataset.day_end(0),
      kMillisPerHour);
  if (!batches.ok()) {
    std::cerr << batches.status() << "\n";
    return 1;
  }
  const std::string target = dataset.entry_owner.empty()
                                 ? std::string("app")
                                 : dataset.entry_owner.begin()->second;
  int64_t queries = 0;
  for (size_t hour = 0; hour < batches.value().size(); ++hour) {
    serve::EpochBatch& batch = batches.value()[hour];
    if (hour == 3) batch.records = LogStore();
    if (hour == 9) {
      service.SubmitBatch({batch.begin, batch.end,
                           SliceByTime(batch.records, batch.begin, batch.end)});
    }
    service.SubmitBatch(std::move(batch));
    (void)service.Step();
    for (int i = 0; i < 8; ++i) {
      if (service.WhatDependsOn(target).ok()) ++queries;
    }
  }
  (void)service.Drain();
  stop_scraper.store(true);
  scraper.join();

  // 5. What the day looked like, from the metrics the scrape serves.
  const serve::ServiceStats stats = service.stats();
  std::cout << "\nDay done: " << stats.epochs_ingested
            << " epochs ingested, " << stats.batches_poisoned
            << " poisoned, " << stats.clock_regressions
            << " replayed hour rejected, "
            << queries << " queries answered\n";

  const obs::MetricsSnapshot snapshot = context.metrics().Snapshot();
  if (const obs::MetricsSnapshot::Entry* query_ns = snapshot.Find(
          obs::MetricName(obs::Metric::kServeQueryNs))) {
    std::cout << "Query latency (sketch, count="
              << query_ns->sketch.count()
              << "): p50=" << query_ns->sketch.Quantile(0.5)
              << "ns p99=" << query_ns->sketch.Quantile(0.99)
              << "ns p999=" << query_ns->sketch.Quantile(0.999) << "ns\n";
  }

  auto metrics_text = obs::IntrospectionQuery(socket_path, "METRICS");
  if (metrics_text.ok()) {
    std::cout << "\nOpenMetrics scrape (first lines):\n";
    size_t shown = 0, at = 0;
    while (shown < 8 && at < metrics_text.value().size()) {
      const size_t end = metrics_text.value().find('\n', at);
      std::cout << "  " << metrics_text.value().substr(at, end - at)
                << "\n";
      at = end + 1;
      ++shown;
    }
  }

  // 6. The poisoned batch left a postmortem bundle behind — the file an
  //    operator (or CI) picks up after the process is gone.
  std::cout << "\nPostmortem bundles:\n";
  for (const auto& entry :
       std::filesystem::directory_iterator(config.postmortem.dir)) {
    auto bundle = obs::ReadPostmortemBundle(entry.path().string());
    if (!bundle.ok()) continue;
    std::cout << "  " << entry.path().filename().string() << ": reason="
              << bundle.value().reason << " span="
              << bundle.value().trigger_span << " tail="
              << bundle.value().journal_tail.size() << " lines\n";
  }

  service_or.value().reset();  // stops the introspection server
  std::filesystem::remove_all(work_dir);
  return 0;
}
