#include "core/impact_analysis.h"

#include <algorithm>
#include <deque>

namespace logmine::core {
namespace {

// Breadth-first closure over an adjacency map, excluding the start node.
std::set<std::string> Closure(
    const std::map<std::string, std::set<std::string>>& adjacency,
    const std::string& start) {
  std::set<std::string> visited;
  std::deque<std::string> frontier = {start};
  while (!frontier.empty()) {
    const std::string current = frontier.front();
    frontier.pop_front();
    auto it = adjacency.find(current);
    if (it == adjacency.end()) continue;
    for (const std::string& next : it->second) {
      if (next != start && visited.insert(next).second) {
        frontier.push_back(next);
      }
    }
  }
  return visited;
}

}  // namespace

void DependencyGraph::AddDependency(const std::string& from,
                                    const std::string& to) {
  if (from == to) return;
  nodes_.insert(from);
  nodes_.insert(to);
  depended_by_[to].insert(from);
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

size_t DependencyGraph::num_edges() const {
  size_t total = 0;
  for (const auto& [node, sources] : depended_by_) total += sources.size();
  return total;
}

std::set<std::string> DependencyGraph::DependentsOf(
    const std::string& component) const {
  auto it = depended_by_.find(component);
  return it == depended_by_.end() ? std::set<std::string>{} : it->second;
}

std::set<std::string> DependencyGraph::ImpactSet(
    const std::string& failed) const {
  return Closure(depended_by_, failed);
}

std::vector<RootCauseCandidate> RankRootCauses(
    const DependencyGraph& graph, const std::set<std::string>& symptomatic) {
  std::vector<RootCauseCandidate> candidates;
  if (symptomatic.empty()) return candidates;
  for (const std::string& component : graph.nodes()) {
    RootCauseCandidate candidate;
    candidate.component = component;
    candidate.symptomatic = symptomatic.count(component) > 0;
    const std::set<std::string> impact = graph.ImpactSet(component);
    const std::set<std::string> direct = graph.DependentsOf(component);
    candidate.blast_radius = static_cast<int64_t>(impact.size());
    int64_t covered = 0, covered_directly = 0;
    for (const std::string& symptom : symptomatic) {
      if (symptom == component || impact.count(symptom)) ++covered;
      if (symptom == component || direct.count(symptom)) {
        ++covered_directly;
      }
    }
    candidate.coverage = static_cast<double>(covered) /
                         static_cast<double>(symptomatic.size());
    candidate.direct_coverage = static_cast<double>(covered_directly) /
                                static_cast<double>(symptomatic.size());
    if (covered > 0) candidates.push_back(std::move(candidate));
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
