// End-to-end fault localization — the paper's §1.1 motivation for
// dependency models, closed into a loop: (1) mine the model from normal
// operation with L3, (2) inject an outage of one backend, (3) detect
// the symptomatic applications from their error rates, (4) rank root
// causes on the mined graph. The failed component must rank first.
//
//   ./fault_localization [--victim=PatientDB] [--scale=0.3] [--seed=...]

#include <iostream>

#include "core/impact_analysis.h"
#include "core/l3_text_miner.h"
#include "eval/dataset.h"
#include "log/filter.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace logmine;
  CliFlags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  const std::string victim_name = flags.GetString("victim", "PatientDB");

  // Scenario and a one-day simulation with the victim down 14:00-15:00.
  sim::HugScenarioConfig scenario_config;
  scenario_config.seed =
      static_cast<uint64_t>(flags.GetInt("seed", 20051206));
  auto scenario = sim::BuildHugScenario(scenario_config);
  if (!scenario.ok()) {
    std::cerr << scenario.status() << "\n";
    return 1;
  }
  const int victim = scenario.value().topology.FindApp(victim_name);
  if (victim < 0) {
    std::cerr << "unknown application: " << victim_name << "\n";
    return 1;
  }
  sim::SimulationConfig sim_config;
  sim_config.seed = scenario_config.seed + 1;
  sim_config.num_days = 1;
  sim_config.scale = flags.GetDouble("scale", 0.3);
  const TimeMs start = sim::DefaultSimulationStart();
  const TimeMs outage_begin = start + 14 * kMillisPerHour;
  const TimeMs outage_end = outage_begin + kMillisPerHour;
  sim_config.failures.push_back(
      sim::FailureWindow{victim, outage_begin, outage_end});

  sim::Simulator simulator(scenario.value().topology,
                           scenario.value().directory, sim_config);
  LogStore store;
  if (Status s = simulator.Run(&store, nullptr); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  std::cout << "corpus: " << store.size() << " logs; outage of "
            << victim_name << " injected " << FormatTime(outage_begin)
            << " .. " << FormatTime(outage_end) << "\n\n";

  // (1) Mine the dependency model from *before* the outage.
  const core::ServiceVocabulary vocabulary =
      eval::VocabularyFrom(scenario.value().directory);
  core::L3TextMiner miner(vocabulary, core::L3Config{});
  auto mined = miner.Mine(store, start, outage_begin);
  if (!mined.ok()) {
    std::cerr << mined.status() << "\n";
    return 1;
  }
  std::map<std::string, std::string> entry_owner;
  for (const sim::Application& app : scenario.value().topology.apps) {
    for (int entry : app.provided_entries) {
      entry_owner[scenario.value()
                      .directory.entry(static_cast<size_t>(entry))
                      .id] = app.name;
    }
  }
  const core::DependencyGraph graph = core::DependencyGraph::FromAppServiceModel(
      mined.value().Dependencies(store, vocabulary), entry_owner);
  std::cout << "mined dependency graph: " << graph.num_nodes()
            << " components, " << graph.num_edges() << " directed edges\n";

  // (2) Detect symptomatic applications: error-rate spike in the outage
  // window relative to the morning baseline.
  std::map<LogStore::SourceId, std::pair<int64_t, int64_t>> window_counts;
  std::map<LogStore::SourceId, std::pair<int64_t, int64_t>> base_counts;
  for (size_t idx : IndicesInRange(store, start + 8 * kMillisPerHour,
                                   outage_begin)) {
    auto& [errors, total] = base_counts[store.source_id(idx)];
    errors += store.severity(idx) == Severity::kError;
    ++total;
  }
  for (size_t idx : IndicesInRange(store, outage_begin, outage_end)) {
    auto& [errors, total] = window_counts[store.source_id(idx)];
    errors += store.severity(idx) == Severity::kError;
    ++total;
  }
  std::set<std::string> symptomatic;
  for (const auto& [source, counts] : window_counts) {
    const auto& [errors, total] = counts;
    if (total < 10 || errors < 3) continue;
    const double window_rate =
        static_cast<double>(errors) / static_cast<double>(total);
    const auto& [base_errors, base_total] = base_counts[source];
    const double base_rate =
        base_total == 0 ? 0.0
                        : static_cast<double>(base_errors) /
                              static_cast<double>(base_total);
    if (window_rate > 5 * base_rate + 0.02) {
      symptomatic.insert(std::string(store.source_name(source)));
    }
  }
  std::cout << "symptomatic during the outage: "
            << Join({symptomatic.begin(), symptomatic.end()}, ", ")
            << "\n\n";

  // (3) Rank root causes on the mined graph.
  const auto ranking = core::RankRootCauses(graph, symptomatic);
  std::cout << "root cause ranking:\n";
  TablePrinter table({"rank", "component", "coverage", "direct", "blast radius"});
  for (size_t i = 0; i < std::min<size_t>(ranking.size(), 5); ++i) {
    table.AddRow({std::to_string(i + 1), ranking[i].component,
                  FormatDouble(ranking[i].coverage, 2),
                  FormatDouble(ranking[i].direct_coverage, 2),
                  std::to_string(ranking[i].blast_radius)});
  }
  table.Print(std::cout);
  const bool localized =
      !ranking.empty() && ranking[0].component == victim_name;
  std::cout << "\nfailed component ranked first: "
            << (localized ? "YES" : "NO") << "\n";

  // Bonus: the mined graph also answers impact questions (§1.1).
  const auto impact = graph.ImpactSet(victim_name);
  std::cout << "predicted impact set of " << victim_name << ": "
            << impact.size() << " components\n";
  return localized ? 0 : 1;
}
