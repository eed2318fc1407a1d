#include "core/dependency.h"

#include <gtest/gtest.h>

namespace logmine::core {
namespace {

TEST(MakeUnorderedPairTest, Normalizes) {
  EXPECT_EQ(MakeUnorderedPair("B", "A"), (NamePair{"A", "B"}));
  EXPECT_EQ(MakeUnorderedPair("A", "B"), (NamePair{"A", "B"}));
  EXPECT_EQ(MakeUnorderedPair("X", "X"), (NamePair{"X", "X"}));
}

TEST(DependencyModelTest, InsertContainsDeduplicates) {
  DependencyModel model;
  EXPECT_TRUE(model.empty());
  model.Insert(MakeUnorderedPair("A", "B"));
  model.Insert(MakeUnorderedPair("B", "A"));  // same pair
  EXPECT_EQ(model.size(), 1u);
  EXPECT_TRUE(model.Contains(MakeUnorderedPair("A", "B")));
  EXPECT_FALSE(model.Contains(MakeUnorderedPair("A", "C")));
}

TEST(DependencyModelTest, SetOperations) {
  DependencyModel a;
  a.Insert({"A", "B"});
  a.Insert({"C", "D"});
  DependencyModel b;
  b.Insert({"C", "D"});
  b.Insert({"E", "F"});

  const DependencyModel u = a.Union(b);
  EXPECT_EQ(u.size(), 3u);
  const auto minus = a.Minus(b);
  ASSERT_EQ(minus.size(), 1u);
  EXPECT_EQ(minus[0], (NamePair{"A", "B"}));
}

TEST(DependencyModelTest, ToStringSortedLines) {
  DependencyModel model;
  model.Insert({"B", "C"});
  model.Insert({"A", "Z"});
  EXPECT_EQ(model.ToString(), "A -- Z\nB -- C\n");
}

TEST(DependencyModelTest, ToDotDirectedAndUndirected) {
  DependencyModel model;
  model.Insert({"App", "SRV"});
  const std::string directed = model.ToDot("g", true);
  EXPECT_NE(directed.find("digraph g {"), std::string::npos);
  EXPECT_NE(directed.find("\"App\" -> \"SRV\";"), std::string::npos);
  const std::string undirected = model.ToDot("g", false);
  EXPECT_NE(undirected.find("graph g {"), std::string::npos);
  EXPECT_NE(undirected.find("\"App\" -- \"SRV\";"), std::string::npos);
}

TEST(DependencyModelTest, ConstructFromSet) {
  std::set<NamePair> pairs = {{"A", "B"}, {"C", "D"}};
  DependencyModel model(pairs);
  EXPECT_EQ(model.size(), 2u);
}

}  // namespace
}  // namespace logmine::core
