#include "core/impact_analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace logmine::core {
namespace {

// Chain:  Web -> Api -> Db,  Batch -> Db,  Api -> Cache.
DependencyGraph ChainGraph() {
  DependencyGraph graph;
  graph.AddDependency("Web", "Api");
  graph.AddDependency("Api", "Db");
  graph.AddDependency("Batch", "Db");
  graph.AddDependency("Api", "Cache");
  return graph;
}

TEST(DependencyGraphTest, NodesAndEdges) {
  const DependencyGraph graph = ChainGraph();
  EXPECT_EQ(graph.num_nodes(), 5u);
  EXPECT_EQ(graph.num_edges(), 4u);
  EXPECT_EQ(graph.DependentsOf("Db"),
            (std::set<std::string>{"Api", "Batch"}));
  EXPECT_EQ(graph.DependentsOf("Cache"), (std::set<std::string>{"Api"}));
  EXPECT_TRUE(graph.DependentsOf("Web").empty());
  EXPECT_TRUE(graph.DependentsOf("Unknown").empty());
}

TEST(DependencyGraphTest, SelfEdgesDropped) {
  DependencyGraph graph;
  graph.AddDependency("A", "A");
  EXPECT_EQ(graph.num_edges(), 0u);
}

TEST(DependencyGraphTest, ImpactSetIsTransitive) {
  const DependencyGraph graph = ChainGraph();
  // If Db fails: Api and Batch break directly, Web transitively.
  EXPECT_EQ(graph.ImpactSet("Db"),
            (std::set<std::string>{"Api", "Batch", "Web"}));
  EXPECT_EQ(graph.ImpactSet("Cache"), (std::set<std::string>{"Api", "Web"}));
  EXPECT_TRUE(graph.ImpactSet("Web").empty());
}

TEST(DependencyGraphTest, HandlesCycles) {
  DependencyGraph graph;
  graph.AddDependency("A", "B");
  graph.AddDependency("B", "A");  // mutual dependency
  EXPECT_EQ(graph.ImpactSet("A"), (std::set<std::string>{"B"}));
  EXPECT_EQ(graph.ImpactSet("B"), (std::set<std::string>{"A"}));
}

TEST(DependencyGraphTest, FromAppServiceModel) {
  DependencyModel model;
  model.Insert({"Web", "APISRV"});
  model.Insert({"Web", "UNKNOWN"});  // no owner -> dropped
  model.Insert({"Api", "APISRV"});   // self via owner -> dropped
  const std::map<std::string, std::string> owner = {{"APISRV", "Api"}};
  const DependencyGraph graph =
      DependencyGraph::FromAppServiceModel(model, owner);
  EXPECT_EQ(graph.num_edges(), 1u);
  EXPECT_EQ(graph.DependentsOf("Api"), (std::set<std::string>{"Web"}));
}

TEST(RankRootCausesTest, DirectCauseWinsOverBystanders) {
  const DependencyGraph graph = ChainGraph();
  // Db outage: Api and Batch symptomatic (direct callers).
  const auto ranking = RankRootCauses(graph, {"Api", "Batch"});
  ASSERT_FALSE(ranking.empty());
  EXPECT_EQ(ranking[0].component, "Db");
  EXPECT_DOUBLE_EQ(ranking[0].coverage, 1.0);
  EXPECT_DOUBLE_EQ(ranking[0].direct_coverage, 1.0);
}

TEST(RankRootCausesTest, SymptomaticLeafIsItsOwnBestExplanation) {
  const DependencyGraph graph = ChainGraph();
  const auto ranking = RankRootCauses(graph, {"Web"});
  ASSERT_FALSE(ranking.empty());
  // Web itself covers the symptom with zero blast radius; its deeper
  // dependencies also cover it but with larger radius.
  EXPECT_EQ(ranking[0].component, "Web");
  EXPECT_TRUE(ranking[0].symptomatic);
}

TEST(RankRootCausesTest, PartialCoverageRankedBelowFull) {
  const DependencyGraph graph = ChainGraph();
  // Api + Batch symptomatic: Cache only explains Api (via direct dep).
  const auto ranking = RankRootCauses(graph, {"Api", "Batch"});
  double cache_coverage = -1;
  for (const RootCauseCandidate& candidate : ranking) {
    if (candidate.component == "Cache") cache_coverage = candidate.coverage;
  }
  EXPECT_DOUBLE_EQ(cache_coverage, 0.5);
  EXPECT_EQ(ranking[0].component, "Db");
}

TEST(RankRootCausesTest, EmptySymptomsYieldNothing) {
  EXPECT_TRUE(RankRootCauses(ChainGraph(), {}).empty());
}

TEST(RankRootCausesTest, UnexplainableSymptomsExcluded) {
  DependencyGraph graph;
  graph.AddDependency("A", "B");
  const auto ranking = RankRootCauses(graph, {"Zed"});
  // "Zed" is not in the graph: no candidate covers it.
  EXPECT_TRUE(ranking.empty());
}

// --------------------------------------------------------------------
// Seeded property test: the graph against a naive string reference.

using Edge = std::pair<std::string, std::string>;  // from depends on to

/// Direct dependents of `component` over the raw edge list.
std::set<std::string> ReferenceDependents(const std::vector<Edge>& edges,
                                          const std::string& component) {
  std::set<std::string> dependents;
  for (const auto& [from, to] : edges) {
    if (to == component && from != to) dependents.insert(from);
  }
  return dependents;
}

/// Breadth-first string closure of the dependents, excluding `failed`.
std::set<std::string> ReferenceImpact(const std::vector<Edge>& edges,
                                      const std::string& failed) {
  std::set<std::string> seen = {failed};
  std::deque<std::string> frontier = {failed};
  while (!frontier.empty()) {
    const std::string current = frontier.front();
    frontier.pop_front();
    for (const std::string& next : ReferenceDependents(edges, current)) {
      if (seen.insert(next).second) frontier.push_back(next);
    }
  }
  seen.erase(failed);
  return seen;
}

/// RankRootCauses' documented order, from the reference closures: every
/// node that explains at least one symptom, by coverage, then direct
/// coverage, then the smaller blast radius, then symptomatic first,
/// then name.
std::vector<RootCauseCandidate> ReferenceRanking(
    const std::vector<Edge>& edges, const std::set<std::string>& nodes,
    const std::set<std::string>& symptomatic) {
  std::vector<RootCauseCandidate> ranking;
  if (symptomatic.empty()) return ranking;
  const auto total = static_cast<double>(symptomatic.size());
  for (const std::string& node : nodes) {
    const std::set<std::string> impact = ReferenceImpact(edges, node);
    const std::set<std::string> direct = ReferenceDependents(edges, node);
    int64_t covered = 0, covered_directly = 0;
    for (const std::string& symptom : symptomatic) {
      covered += symptom == node || impact.count(symptom) > 0;
      covered_directly += symptom == node || direct.count(symptom) > 0;
    }
    if (covered == 0) continue;
    RootCauseCandidate candidate;
    candidate.component = node;
    candidate.coverage = static_cast<double>(covered) / total;
    candidate.direct_coverage = static_cast<double>(covered_directly) / total;
    candidate.blast_radius = static_cast<int64_t>(impact.size());
    candidate.symptomatic = symptomatic.count(node) > 0;
    ranking.push_back(candidate);
  }
  std::sort(ranking.begin(), ranking.end(),
            [](const RootCauseCandidate& a, const RootCauseCandidate& b) {
              return std::make_tuple(-a.coverage, -a.direct_coverage,
                                     a.blast_radius, !a.symptomatic,
                                     a.component) <
                     std::make_tuple(-b.coverage, -b.direct_coverage,
                                     b.blast_radius, !b.symptomatic,
                                     b.component);
            });
  return ranking;
}

TEST(DependencyGraphPropertyTest, MatchesTheStringReferenceOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng = Rng(seed).Fork("graph");
    const int64_t pool = rng.UniformInt(1, 24);
    auto name = [](int64_t i) { return "c" + std::to_string(i); };
    // Repeated edges, self-edges and cycles all occur at these densities.
    std::vector<Edge> edges;
    const int64_t num_edges = rng.UniformInt(0, 3 * pool);
    for (int64_t e = 0; e < num_edges; ++e) {
      edges.emplace_back(name(rng.UniformInt(0, pool - 1)),
                         name(rng.UniformInt(0, pool - 1)));
    }
    DependencyGraph graph;
    std::set<std::string> nodes;
    std::set<Edge> distinct;
    for (const auto& [from, to] : edges) {
      graph.AddDependency(from, to);
      if (from == to) continue;
      nodes.insert(from);
      nodes.insert(to);
      distinct.emplace(from, to);
    }
    EXPECT_EQ(graph.num_nodes(), nodes.size());
    EXPECT_EQ(graph.num_edges(), distinct.size());

    // Every pool name, plus names the graph never saw.
    std::vector<std::string> queries = {"unknown", ""};
    for (int64_t i = 0; i < pool; ++i) queries.push_back(name(i));
    for (const std::string& query : queries) {
      EXPECT_EQ(graph.DependentsOf(query), ReferenceDependents(edges, query))
          << query;
      EXPECT_EQ(graph.ImpactSet(query), ReferenceImpact(edges, query))
          << query;
    }

    for (int trial = 0; trial < 4; ++trial) {
      std::set<std::string> symptomatic;
      for (const std::string& query : queries) {
        if (rng.Bernoulli(0.2)) symptomatic.insert(query);
      }
      const auto got = RankRootCauses(graph, symptomatic);
      const auto want = ReferenceRanking(edges, nodes, symptomatic);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("rank " + std::to_string(i));
        EXPECT_EQ(got[i].component, want[i].component);
        EXPECT_EQ(got[i].coverage, want[i].coverage);
        EXPECT_EQ(got[i].direct_coverage, want[i].direct_coverage);
        EXPECT_EQ(got[i].blast_radius, want[i].blast_radius);
        EXPECT_EQ(got[i].symptomatic, want[i].symptomatic);
      }
    }
  }
}

}  // namespace
}  // namespace logmine::core
