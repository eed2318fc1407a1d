#include "core/impact_analysis.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace logmine::core
