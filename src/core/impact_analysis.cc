#include "core/impact_analysis.h"

#include <algorithm>
#include <optional>

namespace logmine::core {

void DependencyGraph::AddDependency(const std::string& from,
                                    const std::string& to) {
  if (from == to) return;
  const uint32_t from_id = names_.Intern(from);
  const uint32_t to_id = names_.Intern(to);
  dependents_.resize(names_.size());
  std::vector<uint32_t>& dependents = dependents_[to_id];
  auto it = std::lower_bound(dependents.begin(), dependents.end(), from_id);
  if (it != dependents.end() && *it == from_id) return;
  dependents.insert(it, from_id);
  ++num_edges_;
}

DependencyGraph DependencyGraph::FromAppServiceModel(
    const DependencyModel& model,
    const std::map<std::string, std::string>& entry_owner) {
  DependencyGraph graph;
  for (const NamePair& pair : model.pairs()) {
    auto owner = entry_owner.find(pair.second);
    if (owner == entry_owner.end()) continue;
    graph.AddDependency(pair.first, owner->second);
  }
  return graph;
}

void DependencyGraph::Closure(uint32_t start, std::vector<uint8_t>* visited,
                              std::vector<uint32_t>* reached) const {
  reached->clear();
  (*visited)[start] = 1;
  auto expand = [&](uint32_t id) {
    for (uint32_t next : dependents_[id]) {
      if (!(*visited)[next]) {
        (*visited)[next] = 1;
        reached->push_back(next);
      }
    }
  };
  expand(start);
  for (size_t i = 0; i < reached->size(); ++i) expand((*reached)[i]);
  (*visited)[start] = 0;
  for (uint32_t id : *reached) (*visited)[id] = 0;
}

std::set<std::string> DependencyGraph::NamesOf(
    const std::vector<uint32_t>& ids) const {
  std::set<std::string> names;
  for (uint32_t id : ids) names.insert(names_.name(id));
  return names;
}

std::set<std::string> DependencyGraph::DependentsOf(
    const std::string& component) const {
  const std::optional<uint32_t> id = names_.Find(component);
  return id ? NamesOf(dependents_[*id]) : std::set<std::string>{};
}

std::set<std::string> DependencyGraph::ImpactSet(
    const std::string& failed) const {
  const std::optional<uint32_t> id = names_.Find(failed);
  if (!id) return {};
  std::vector<uint8_t> visited(num_nodes(), 0);
  std::vector<uint32_t> reached;
  Closure(*id, &visited, &reached);
  return NamesOf(reached);
}

std::vector<RootCauseCandidate> RankRootCauses(
    const DependencyGraph& graph, const std::set<std::string>& symptomatic) {
  std::vector<RootCauseCandidate> candidates;
  if (symptomatic.empty()) return candidates;
  // Symptoms the graph does not hold count in the denominator only.
  std::vector<uint8_t> is_symptom(graph.num_nodes(), 0);
  for (const std::string& symptom : symptomatic) {
    if (auto id = graph.names_.Find(symptom)) is_symptom[*id] = 1;
  }
  const auto symptoms = static_cast<double>(symptomatic.size());
  std::vector<uint8_t> visited(graph.num_nodes(), 0);
  std::vector<uint32_t> impact;
  for (uint32_t id = 0; id < graph.num_nodes(); ++id) {
    graph.Closure(id, &visited, &impact);
    // The closure and the direct dependents both exclude `id` itself.
    int64_t covered = is_symptom[id], covered_directly = is_symptom[id];
    for (uint32_t reached : impact) covered += is_symptom[reached];
    if (covered == 0) continue;
    for (uint32_t dependent : graph.dependents_[id]) {
      covered_directly += is_symptom[dependent];
    }
    RootCauseCandidate candidate;
    candidate.component = graph.names_.name(id);
    candidate.symptomatic = is_symptom[id] != 0;
    candidate.blast_radius = static_cast<int64_t>(impact.size());
    candidate.coverage = static_cast<double>(covered) / symptoms;
    candidate.direct_coverage =
        static_cast<double>(covered_directly) / symptoms;
    candidates.push_back(std::move(candidate));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const RootCauseCandidate& a, const RootCauseCandidate& b) {
              if (a.coverage != b.coverage) return a.coverage > b.coverage;
              if (a.direct_coverage != b.direct_coverage) {
                return a.direct_coverage > b.direct_coverage;
              }
              if (a.blast_radius != b.blast_radius) {
                return a.blast_radius < b.blast_radius;
              }
              if (a.symptomatic != b.symptomatic) return a.symptomatic;
              return a.component < b.component;
            });
  return candidates;
}

}  // namespace logmine::core
