// The query graph of published generations: how BuildQueryGraph turns a
// window's models into edges, and golden answers on a simulated week.
//
// The golden test builds each day's graph the way perf_e2e's batch job
// does — the pipeline mines the day, a ModelTracker observes L1 ∪ L2,
// and BuildQueryGraph joins the tracker's confirmed pairs with L3 — and
// folds every node's ImpactSet and DependentsOf answer, plus the root
// cause ranking of each node's direct dependents, into one digest per
// day. The expected digests were recorded with the string-keyed graph
// (a std::map of std::set<std::string> walked by a string BFS); the
// graph over dense ids must answer exactly the same.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_tracker.h"
#include "core/pipeline.h"
#include "eval/dataset.h"
#include "serve/model_publisher.h"

namespace logmine::serve {
namespace {

using core::DependencyGraph;
using core::DependencyModel;

TEST(BuildQueryGraphTest, TrackerPairsGiveEdgesBothWays) {
  DependencyModel tracker_active;
  tracker_active.Insert(core::MakeUnorderedPair("appA", "appB"));
  const DependencyGraph graph =
      BuildQueryGraph(WindowModelSet{}, tracker_active, {});
  EXPECT_EQ(graph.num_nodes(), 2u);
  EXPECT_EQ(graph.num_edges(), 2u);
  EXPECT_EQ(graph.DependentsOf("appA"), std::set<std::string>{"appB"});
  EXPECT_EQ(graph.DependentsOf("appB"), std::set<std::string>{"appA"});
}

TEST(BuildQueryGraphTest, L3PairsResolveThroughTheOwnerMap) {
  WindowModelSet models;
  models.l3.Insert({"appA", "svc1"});     // appA -> owner(svc1) = appB
  models.l3.Insert({"appA", "orphan"});   // no owner: dropped
  models.l3.Insert({"appB", "svc1"});     // appB -> appB: self-edge, dropped
  models.l3.Insert({"appC", "svc2"});     // appC -> appA
  const std::map<std::string, std::string> owner = {{"svc1", "appB"},
                                                    {"svc2", "appA"}};
  const DependencyGraph graph =
      BuildQueryGraph(models, DependencyModel{}, owner);
  EXPECT_EQ(graph.num_nodes(), 3u);
  EXPECT_EQ(graph.num_edges(), 2u);
  EXPECT_EQ(graph.DependentsOf("appB"), std::set<std::string>{"appA"});
  EXPECT_EQ(graph.DependentsOf("appA"), std::set<std::string>{"appC"});
  // L3 edges are directed: nothing depends on appC.
  EXPECT_TRUE(graph.DependentsOf("appC").empty());
  EXPECT_EQ(graph.ImpactSet("appB"),
            (std::set<std::string>{"appA", "appC"}));
  EXPECT_TRUE(graph.DependentsOf("orphan").empty());
}

TEST(BuildQueryGraphTest, ParsedGenerationAnswersTheSame) {
  ModelGeneration generation;
  generation.number = 3;
  generation.models.l3.Insert({"appA", "svc1"});
  generation.models.l3.Insert({"appD", "svc1"});
  generation.tracker_active.Insert(core::MakeUnorderedPair("appB", "appC"));
  const std::map<std::string, std::string> owner = {{"svc1", "appB"}};
  generation.graph = BuildQueryGraph(generation.models,
                                     generation.tracker_active, owner);

  auto parsed = ParseGeneration(SerializeGeneration(generation), owner);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const DependencyGraph& rebuilt = parsed.value().graph;
  EXPECT_EQ(rebuilt.num_nodes(), generation.graph.num_nodes());
  EXPECT_EQ(rebuilt.num_edges(), generation.graph.num_edges());
  for (const std::string name :
       {"appA", "appB", "appC", "appD", "svc1", "unknown"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(rebuilt.ImpactSet(name), generation.graph.ImpactSet(name));
    EXPECT_EQ(rebuilt.DependentsOf(name),
              generation.graph.DependentsOf(name));
  }
  EXPECT_EQ(rebuilt.ImpactSet("appC"),
            (std::set<std::string>{"appA", "appB", "appD"}));
}

// FNV-1a over the values in order; strings are length-prefixed.
class Digest {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) Byte(v & 0xff);
  }
  void Mix(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
  void Mix(std::string_view s) {
    Mix(static_cast<uint64_t>(s.size()));
    for (char c : s) Byte(static_cast<unsigned char>(c));
  }
  void Mix(const std::set<std::string>& names) {
    Mix(static_cast<uint64_t>(names.size()));
    for (const std::string& name : names) Mix(name);
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  void Byte(uint64_t b) { hash_ = (hash_ ^ b) * 0x100000001B3ULL; }
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

TEST(QueryGraphGoldenTest, WeekOfGraphsAnswersMatchTheRecordedDigests) {
  eval::DatasetConfig config;
  config.simulation.num_days = 7;
  config.simulation.scale = 0.1;
  auto built = eval::BuildDataset(config);
  ASSERT_TRUE(built.ok()) << built.status();
  const eval::Dataset& dataset = built.value();

  const core::MiningPipeline pipeline(dataset.vocabulary,
                                     core::PipelineConfig{});
  core::ModelTracker tracker(core::ModelTrackerConfig{});

  // Every name a query can meet: the landscape's applications, the
  // providers of vocabulary entries, and one name no graph holds.
  std::set<std::string> names = {"no-such-component"};
  for (const auto& app : dataset.scenario.topology.apps) {
    names.insert(app.name);
  }
  for (const auto& [entry, owner] : dataset.entry_owner) names.insert(owner);

  const std::vector<std::string> expected = {
      "12793f2b471ec923", "11be0481268386ef", "65db3fa40baac19a",
      "4c63eb0bd4b7d817", "b2db29c4df2a6ff6", "75c5b1e9cda88092",
      "6af0b8642efa9dff",
  };
  ASSERT_EQ(static_cast<int>(expected.size()), dataset.num_days());
  for (int day = 0; day < dataset.num_days(); ++day) {
    SCOPED_TRACE("day " + std::to_string(day));
    auto run = pipeline.Run(dataset.store, dataset.day_begin(day),
                            dataset.day_end(day));
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_TRUE(run.value().all_ok()) << run.value().first_error();
    WindowModelSet models;
    models.l3 = run.value().l3->Dependencies(dataset.store,
                                             dataset.vocabulary);
    tracker.Observe(run.value().l1->Dependencies(dataset.store).Union(
        run.value().l2->Dependencies(dataset.store)));
    const DependencyGraph graph =
        BuildQueryGraph(models, tracker.ActiveModel(), dataset.entry_owner);
    // A graph with no transitive answers would pin little.
    ASSERT_GT(graph.num_edges(), 0u);

    Digest digest;
    digest.Mix(static_cast<uint64_t>(graph.num_nodes()));
    digest.Mix(static_cast<uint64_t>(graph.num_edges()));
    bool transitive = false;
    for (const std::string& name : names) {
      const std::set<std::string> impact = graph.ImpactSet(name);
      const std::set<std::string> direct = graph.DependentsOf(name);
      transitive |= impact.size() > direct.size();
      digest.Mix(name);
      digest.Mix(impact);
      digest.Mix(direct);
      if (direct.empty()) continue;
      for (const core::RootCauseCandidate& candidate :
           core::RankRootCauses(graph, direct)) {
        digest.Mix(candidate.component);
        digest.Mix(candidate.coverage);
        digest.Mix(candidate.direct_coverage);
        digest.Mix(static_cast<uint64_t>(candidate.blast_radius));
        digest.Mix(static_cast<uint64_t>(candidate.symptomatic));
      }
    }
    EXPECT_TRUE(transitive);
    EXPECT_EQ(digest.Hex(), expected[static_cast<size_t>(day)]);
  }
}

}  // namespace
}  // namespace logmine::serve
