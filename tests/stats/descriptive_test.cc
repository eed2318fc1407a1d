#include "stats/descriptive.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace logmine::stats {
namespace {

TEST(MeanTest, Basics) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({-5}), -5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(VarianceTest, UnbiasedDenominator) {
  // Sample {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, sum sq dev 32, var = 32/7.
  EXPECT_NEAR(Variance({2, 4, 4, 4, 5, 5, 7, 9}), 32.0 / 7, 1e-12);
  EXPECT_DOUBLE_EQ(Variance({3}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
  EXPECT_NEAR(Stddev({2, 4, 4, 4, 5, 5, 7, 9}), std::sqrt(32.0 / 7), 1e-12);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7);
}

TEST(QuantileTest, Type7Interpolation) {
  const std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 4);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 1.75);  // R type-7 convention
}

TEST(BoxplotTest, FiveNumberSummary) {
  const BoxplotStats box = Boxplot({1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_DOUBLE_EQ(box.min, 1);
  EXPECT_DOUBLE_EQ(box.max, 9);
  EXPECT_DOUBLE_EQ(box.median, 5);
  EXPECT_DOUBLE_EQ(box.q1, 3);
  EXPECT_DOUBLE_EQ(box.q3, 7);
  EXPECT_EQ(box.num_outliers, 0);
  EXPECT_DOUBLE_EQ(box.whisker_lo, 1);
  EXPECT_DOUBLE_EQ(box.whisker_hi, 9);
}

TEST(BoxplotTest, OutliersBeyondFences) {
  // IQR fences: q1 = 2.5, q3 = 4.5 -> lo fence -0.5, hi fence 7.5.
  const BoxplotStats box = Boxplot({1, 2, 3, 4, 5, 100});
  EXPECT_EQ(box.num_outliers, 1);
  EXPECT_DOUBLE_EQ(box.whisker_hi, 5);
  EXPECT_DOUBLE_EQ(box.max, 100);
}

TEST(PearsonCorrelationTest, PerfectAndInverse) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

TEST(PearsonCorrelationTest, ConstantSeriesIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(PearsonCorrelationTest, IndependentNearZero) {
  Rng rng(11);
  std::vector<double> xs, ys;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(rng.Uniform());
    ys.push_back(rng.Uniform());
  }
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 0.0, 0.03);
}

}  // namespace
}  // namespace logmine::stats
