// Observability tour: run the HUG-scenario pipeline with a fully wired
// ObsContext, print the metrics registry as an aligned text report, and
// export the event journal as Chrome trace_event JSON. Open the trace
// in chrome://tracing or https://ui.perfetto.dev to see the per-miner
// spans nested under the pipeline run.
//
//   ./obs_demo [--scale=0.1] [--days=1] [--seed=7] [--trace=trace.json]

#include <fstream>
#include <iostream>

#include "core/pipeline.h"
#include "eval/dataset.h"
#include "log/codec.h"
#include "obs/obs.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace logmine;

  CliFlags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  // 1. One context for the whole process. Installing it globally makes
  // every layer report into it — the codec, the store, each miner, the
  // executor — not just the code we pass it to explicitly.
  obs::ObsContext context;
  obs::ScopedGlobalObs scoped(&context);

  // 2. Generate a day of hospital logs and round-trip them through the
  // line codec so the ingest counters have something to say.
  eval::DatasetConfig config;
  config.scenario.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  config.simulation.seed = config.scenario.seed + 1;
  config.simulation.scale = flags.GetDouble("scale", 0.1);
  config.simulation.num_days = static_cast<int>(flags.GetInt("days", 1));
  auto dataset_or = eval::BuildDataset(config);
  if (!dataset_or.ok()) {
    std::cerr << dataset_or.status() << "\n";
    return 1;
  }
  eval::Dataset dataset = std::move(dataset_or).value();
  std::cout << "Mining " << dataset.store.size() << " logs from "
            << dataset.store.num_sources() << " applications ...\n\n";

  if (auto decoded =
          LineCodec::DecodeAll(LineCodec::EncodeAll(dataset.store.Records()));
      !decoded.ok()) {
    std::cerr << decoded.status() << "\n";
    return 1;
  }

  // 3. Run the pipeline with the context passed explicitly as well: the
  // result then carries its own metrics snapshot.
  core::MiningPipeline pipeline(dataset.vocabulary, core::PipelineConfig{});
  auto result = pipeline.Run(dataset.store, dataset.day_begin(0),
                             dataset.day_end(0), &context);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }

  // 4. The text report: every non-zero counter, gauge and sketch.
  std::cout << result.value().metrics->ToText();

  // 5. The trace, read off the journal: one complete ("X") event per
  // event carrying dur_ns, an instant for every other boundary.
  const std::string trace_path = flags.GetString("trace", "trace.json");
  const std::vector<std::string> lines =
      context.journal().Tail(context.journal().options().tail_capacity);
  std::string jsonl;
  for (const std::string& line : lines) jsonl += line + "\n";
  std::ofstream trace_out(trace_path, std::ios::trunc);
  trace_out << obs::JournalToChromeTrace(jsonl);
  if (!trace_out) {
    std::cerr << "cannot write " << trace_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << trace_path << " (" << lines.size()
            << " journal events) - load it in chrome://tracing\n";
  return 0;
}
