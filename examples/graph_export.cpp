// Dependency-model export: mines a corpus with L3, writes the discovered
// model as Graphviz DOT and the service directory as XML, and
// round-trips a sample of the corpus through the line codec — the
// interchange formats a downstream user of the library would consume.
//
//   ./graph_export [--out=/tmp] [--scale=0.1]

#include <fstream>
#include <iostream>

#include "core/l3_text_miner.h"
#include "eval/dataset.h"
#include "log/codec.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace logmine;
  CliFlags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  const std::string out_dir = flags.GetString("out", "/tmp");

  eval::DatasetConfig config;
  config.simulation.num_days = 1;
  config.simulation.scale = flags.GetDouble("scale", 0.1);
  auto dataset_or = eval::BuildDataset(config);
  if (!dataset_or.ok()) {
    std::cerr << dataset_or.status() << "\n";
    return 1;
  }
  const eval::Dataset dataset = std::move(dataset_or).value();

  // Mine and export the discovered model.
  core::L3TextMiner miner(dataset.vocabulary, core::L3Config{});
  auto result = miner.Mine(dataset.store, dataset.store.min_ts(),
                           dataset.store.max_ts() + 1);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  const core::DependencyModel model =
      result.value().Dependencies(dataset.store, dataset.vocabulary);

  const std::string dot_path = out_dir + "/dependency_model.dot";
  std::ofstream dot(dot_path);
  dot << model.ToDot("dependencies", /*directed=*/true);
  dot.close();
  std::cout << "wrote " << model.size() << " dependencies to " << dot_path
            << "\n";

  // Export the service directory in the HUG-style XML shape.
  const std::string xml_path = out_dir + "/service_directory.xml";
  std::ofstream xml(xml_path);
  xml << dataset.scenario.directory.ToXml();
  xml.close();
  std::cout << "wrote " << dataset.scenario.directory.size()
            << " directory entries to " << xml_path << "\n";

  // Round-trip a corpus sample through the line format.
  std::vector<LogRecord> sample;
  for (size_t i = 0; i < std::min<size_t>(dataset.store.size(), 1000); ++i) {
    sample.push_back(dataset.store.GetRecord(i));
  }
  const std::string log_path = out_dir + "/corpus_sample.log";
  std::ofstream logs(log_path);
  logs << LineCodec::EncodeAll(sample);
  logs.close();

  std::ifstream back(log_path);
  std::string text((std::istreambuf_iterator<char>(back)),
                   std::istreambuf_iterator<char>());
  auto decoded = LineCodec::DecodeAll(text);
  if (!decoded.ok()) {
    std::cerr << "round-trip failed: " << decoded.status() << "\n";
    return 1;
  }
  if (decoded.value().Records() != sample) {
    std::cerr << "round-trip mismatch\n";
    return 1;
  }
  std::cout << "round-tripped " << sample.size() << " records through "
            << log_path << "\n";
  return 0;
}
