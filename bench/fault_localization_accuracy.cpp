// Closes the paper's §1.1 loop quantitatively: for each of several
// injected outages, mine the model from normal operation (L3), detect
// symptomatic applications from error-rate spikes, rank root causes on
// the mined graph, and report where the true victim lands. The paper
// motivates dependency models *for* root cause analysis; this bench
// measures how well the mined model actually supports it.

#include <iostream>

#include "core/impact_analysis.h"
#include "core/l3_text_miner.h"
#include "eval/dataset.h"
#include "log/filter.h"
#include "simulation/simulator.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace logmine;

// Returns the victim's rank (1-based; 0 = not ranked) plus diagnostics.
struct Trial {
  std::string victim;
  int rank = 0;
  size_t num_symptomatic = 0;
};

Trial RunTrial(const sim::HugScenario& scenario, int victim, double scale,
               uint64_t seed) {
  Trial trial;
  trial.victim =
      scenario.topology.apps[static_cast<size_t>(victim)].name;

  sim::SimulationConfig config;
  config.seed = seed;
  config.num_days = 1;
  config.scale = scale;
  const TimeMs start = sim::DefaultSimulationStart();
  const TimeMs outage_begin = start + 14 * kMillisPerHour;
  const TimeMs outage_end = outage_begin + kMillisPerHour;
  config.failures.push_back(
      sim::FailureWindow{victim, outage_begin, outage_end});

  sim::Simulator simulator(scenario.topology, scenario.directory, config);
  LogStore store;
  if (!simulator.Run(&store, nullptr).ok()) return trial;

  const core::ServiceVocabulary vocabulary =
      eval::VocabularyFrom(scenario.directory);
  core::L3TextMiner miner(vocabulary, core::L3Config{});
  auto mined = miner.Mine(store, start, outage_begin);
  if (!mined.ok()) return trial;
  std::map<std::string, std::string> entry_owner;
  for (const sim::Application& app : scenario.topology.apps) {
    for (int entry : app.provided_entries) {
      entry_owner[scenario.directory.entry(static_cast<size_t>(entry)).id] =
          app.name;
    }
  }
  const core::DependencyGraph graph =
      core::DependencyGraph::FromAppServiceModel(
          mined.value().Dependencies(store, vocabulary), entry_owner);

  // Symptom detection by error-rate spike vs the morning baseline.
  std::map<LogStore::SourceId, std::pair<int64_t, int64_t>> window_counts;
  std::map<LogStore::SourceId, std::pair<int64_t, int64_t>> base_counts;
  for (size_t idx :
       IndicesInRange(store, start + 8 * kMillisPerHour, outage_begin)) {
    auto& [errors, total] = base_counts[store.source_id(idx)];
    errors += store.severity(idx) == Severity::kError;
    ++total;
  }
  for (uint32_t idx : IndicesInRange(store, outage_begin, outage_end)) {
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
  trial.num_symptomatic = symptomatic.size();

  const auto ranking = core::RankRootCauses(graph, symptomatic);
  for (size_t i = 0; i < ranking.size(); ++i) {
    if (ranking[i].component == trial.victim) {
      trial.rank = static_cast<int>(i) + 1;
      break;
    }
  }
  return trial;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace logmine;
  CliFlags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  const double scale = flags.GetDouble("scale", 0.6);

  sim::HugScenarioConfig scenario_config;
  scenario_config.seed = static_cast<uint64_t>(flags.GetInt("seed", 20051206));
  auto scenario = sim::BuildHugScenario(scenario_config);
  if (!scenario.ok()) {
    std::cerr << scenario.status() << "\n";
    return 1;
  }

  // Victims: every backend plus a few heavily used services.
  std::vector<int> victims;
  for (size_t a = 0; a < scenario.value().topology.apps.size(); ++a) {
    if (scenario.value().topology.apps[a].tier == sim::Tier::kBackend) {
      victims.push_back(static_cast<int>(a));
    }
  }
  for (const char* name : {"DPIPublication", "PatientIndex", "LabResults"}) {
    victims.push_back(scenario.value().topology.FindApp(name));
  }

  std::cout << "Fault localization over " << victims.size()
            << " injected outages (mined model, error-spike symptoms)\n";
  TablePrinter table({"victim", "#symptomatic", "rank of true cause"});
  int top1 = 0, top3 = 0, total = 0;
  for (size_t i = 0; i < victims.size(); ++i) {
    const Trial trial = RunTrial(scenario.value(), victims[i], scale,
                                 scenario_config.seed + 100 + i);
    ++total;
    if (trial.rank == 1) ++top1;
    if (trial.rank >= 1 && trial.rank <= 3) ++top3;
    table.AddRow({trial.victim, std::to_string(trial.num_symptomatic),
                  trial.rank == 0 ? "unranked" : std::to_string(trial.rank)});
  }
  table.Print(std::cout);
  std::cout << "\ntop-1 accuracy: " << top1 << "/" << total
            << "   top-3 accuracy: " << top3 << "/" << total << "\n";
  return 0;
}
