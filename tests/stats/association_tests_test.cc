#include "stats/association_tests.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stats/contingency.h"

namespace logmine::stats {
namespace {

TEST(ContingencyTest, MarginalsAndExpected) {
  // The paper's running example (figure 4): bigram type (A2, A3) over the
  // 8 bigrams of the example session: o11=2, o12=1, o21=0, o22=5.
  Contingency2x2 t{2, 1, 0, 5};
  EXPECT_EQ(t.r1(), 3);
  EXPECT_EQ(t.r2(), 5);
  EXPECT_EQ(t.c1(), 2);
  EXPECT_EQ(t.c2(), 6);
  EXPECT_EQ(t.n(), 8);
  EXPECT_NEAR(t.e11(), 3.0 * 2.0 / 8.0, 1e-12);
  EXPECT_NEAR(t.e12(), 3.0 * 6.0 / 8.0, 1e-12);
  EXPECT_NEAR(t.e21(), 5.0 * 2.0 / 8.0, 1e-12);
  EXPECT_NEAR(t.e22(), 5.0 * 6.0 / 8.0, 1e-12);
  EXPECT_TRUE(t.IsAttracted());  // 2 > 0.75
}

TEST(ContingencyTest, EmptyTable) {
  Contingency2x2 t;
  EXPECT_EQ(t.n(), 0);
  EXPECT_EQ(t.e11(), 0.0);
  EXPECT_FALSE(t.IsAttracted());
}

TEST(ContingencyTest, ToStringRendersCells) {
  Contingency2x2 t{1, 2, 3, 4};
  EXPECT_EQ(t.ToString(), "[[1, 2], [3, 4]]");
}

TEST(DunningTest, IndependentTableScoresZero) {
  // Perfectly proportional rows: o11/o12 == o21/o22.
  Contingency2x2 t{10, 20, 30, 60};
  EXPECT_NEAR(DunningLogLikelihood(t), 0.0, 1e-9);
  EXPECT_NEAR(PearsonChiSquare(t), 0.0, 1e-9);
}

TEST(DunningTest, HandComputedValue) {
  // G^2 = 2 * sum o * ln(o/e) for [[10, 10], [10, 70]]:
  // r1=20 c1=20 n=100 -> e11=4, e12=16, e21=16, e22=64.
  Contingency2x2 t{10, 10, 10, 70};
  const double expected = 2.0 * (10 * std::log(10 / 4.0) +
                                 10 * std::log(10 / 16.0) +
                                 10 * std::log(10 / 16.0) +
                                 70 * std::log(70 / 64.0));
  EXPECT_NEAR(DunningLogLikelihood(t), expected, 1e-9);
}

TEST(DunningTest, ZeroCellsContributeNothing) {
  Contingency2x2 t{5, 0, 0, 5};
  // G^2 = 2 * (5 ln(5/2.5) + 5 ln(5/2.5)) = 20 ln 2.
  EXPECT_NEAR(DunningLogLikelihood(t), 20.0 * std::log(2.0), 1e-9);
}

TEST(PearsonTest, ClassicTextbookTable) {
  // [[20, 30], [30, 20]]: X^2 = sum (o-e)^2/e with all e = 25 -> 4.
  Contingency2x2 t{20, 30, 30, 20};
  EXPECT_NEAR(PearsonChiSquare(t), 4.0, 1e-9);
}

TEST(DunningVsPearsonTest, AgreeOnBalancedTablesDivergeOnSkewed) {
  // For large balanced tables the two statistics are close.
  Contingency2x2 balanced{120, 80, 80, 120};
  EXPECT_NEAR(DunningLogLikelihood(balanced) / PearsonChiSquare(balanced),
              1.0, 0.05);
  // Heavily skewed table (rare joint events): Pearson explodes relative
  // to G^2 — Dunning's original motivation.
  Contingency2x2 skewed{3, 2, 2, 10000};
  EXPECT_GT(PearsonChiSquare(skewed), 2.0 * DunningLogLikelihood(skewed));
}

TEST(PValueTest, MatchesChiSquareTail) {
  EXPECT_NEAR(ChiSquarePValue(3.841458820694124), 0.05, 1e-9);
  EXPECT_NEAR(ChiSquarePValue(6.6348966010212145), 0.01, 1e-9);
  EXPECT_NEAR(ChiSquarePValue(0.0), 1.0, 1e-12);
}

TEST(SignificantAttractionTest, RequiresBothAttractionAndSignificance) {
  // Strong attraction.
  Contingency2x2 attracted{50, 10, 10, 200};
  EXPECT_TRUE(IsSignificantAttraction(
      attracted, DunningLogLikelihood(attracted), 0.01));
  // Strong *repulsion* — significant score but o11 < e11 must be
  // rejected (we only want positive association).
  Contingency2x2 repelled{1, 100, 100, 50};
  EXPECT_GT(DunningLogLikelihood(repelled), 10.0);
  EXPECT_FALSE(IsSignificantAttraction(
      repelled, DunningLogLikelihood(repelled), 0.01));
  // Attracted but not significant.
  Contingency2x2 weak{3, 2, 2, 6};
  EXPECT_FALSE(
      IsSignificantAttraction(weak, DunningLogLikelihood(weak), 0.001));
}

}  // namespace
}  // namespace logmine::stats
