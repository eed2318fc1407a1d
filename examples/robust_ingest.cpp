// Robust ingest: generate a clean corpus, corrupt it at a configurable
// rate, re-ingest it leniently under an error budget, and mine whatever
// survives — the full damaged-corpus spine (DESIGN.md §8).
//
//   ./robust_ingest [--rate=0.1] [--budget=0.2] [--scale=0.1] [--seed=7]

#include <iostream>
#include <vector>

#include "core/evaluation.h"
#include "core/pipeline.h"
#include "eval/dataset.h"
#include "log/codec.h"
#include "simulation/corruptor.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace logmine;

  CliFlags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  const double rate = flags.GetDouble("rate", 0.1);
  const double budget = flags.GetDouble("budget", 0.2);

  // 1. A clean simulated corpus, serialized to the line format.
  eval::DatasetConfig config;
  config.scenario.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  config.simulation.seed = config.scenario.seed + 1;
  config.simulation.scale = flags.GetDouble("scale", 0.1);
  config.simulation.num_days = 1;
  auto dataset_or = eval::BuildDataset(config);
  if (!dataset_or.ok()) {
    std::cerr << dataset_or.status() << "\n";
    return 1;
  }
  eval::Dataset dataset = std::move(dataset_or).value();
  // The simulator's store is indexed, so its records are in time order.
  const std::string clean_text = LineCodec::EncodeAll(dataset.store.Records());
  std::cout << "Clean corpus: " << dataset.store.size() << " logs\n";

  // 2. Damage it, deterministically.
  sim::CorruptorConfig corruptor_config;
  corruptor_config.rate = rate;
  Rng rng(config.scenario.seed + 2);
  sim::CorruptionReport report;
  const std::string corrupted =
      sim::CorruptCorpusText(clean_text, corruptor_config, &rng, &report);
  std::cout << report.ToString() << "\n\n";

  // 3. Lenient ingest under an error budget.
  DecodeOptions options;
  options.policy = DecodePolicy::kQuarantine;
  options.max_bad_fraction = budget;
  IngestStats stats;
  auto decoded = LineCodec::DecodeAll(corrupted, options, &stats);
  std::cout << stats.ToString() << "\n\n";
  if (!decoded.ok()) {
    std::cerr << "ingest refused the corpus: " << decoded.status() << "\n";
    return 1;
  }
  LogStore store = std::move(decoded).value();
  store.BuildIndex();

  // 4. Mine the surviving records; report per-miner outcomes.
  core::PipelineConfig pipeline_config;
  core::MiningPipeline pipeline(dataset.vocabulary, pipeline_config);
  auto result_or =
      pipeline.Run(store, dataset.day_begin(0), dataset.day_end(0));
  if (!result_or.ok()) {
    std::cerr << result_or.status() << "\n";
    return 1;
  }
  const core::PipelineResult& result = result_or.value();
  auto report_miner = [&](const char* name, const Status& status,
                          bool present) {
    std::cout << name << ": "
              << (status.ok() ? (present ? "ok" : "disabled")
                              : status.ToString())
              << "\n";
  };
  report_miner("L1", result.l1_status, result.l1.has_value());
  report_miner("L2", result.l2_status, result.l2.has_value());
  report_miner("L3", result.l3_status, result.l3.has_value());

  if (result.l3.has_value()) {
    const core::ConfusionCounts counts = core::Evaluate(
        result.l3->Dependencies(store, dataset.vocabulary),
        dataset.reference_services, dataset.universe_services);
    std::cout << "\nL3 on the damaged corpus: precision="
              << counts.precision() << " recall=" << counts.recall()
              << " (vs the clean-run reference model)\n";
  }
  return result.all_ok() ? 0 : 2;
}
