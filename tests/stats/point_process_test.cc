#include "stats/point_process.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace logmine::stats {
namespace {

TEST(NearestDistanceTest, InteriorAndBoundary) {
  const std::vector<int64_t> ref = {10, 20, 40};
  EXPECT_EQ(NearestDistance(10, ref), 0);
  EXPECT_EQ(NearestDistance(14, ref), 4);
  EXPECT_EQ(NearestDistance(16, ref), 4);
  EXPECT_EQ(NearestDistance(15, ref), 5);   // equidistant
  EXPECT_EQ(NearestDistance(29, ref), 9);
  EXPECT_EQ(NearestDistance(31, ref), 9);
  EXPECT_EQ(NearestDistance(0, ref), 10);   // before first
  EXPECT_EQ(NearestDistance(100, ref), 60); // after last
}

TEST(NearestDistanceTest, SingleElement) {
  const std::vector<int64_t> ref = {5};
  EXPECT_EQ(NearestDistance(5, ref), 0);
  EXPECT_EQ(NearestDistance(-3, ref), 8);
  EXPECT_EQ(NearestDistance(9, ref), 4);
}

TEST(DistancesToNearestTest, PerPoint) {
  const std::vector<int64_t> ref = {0, 100};
  const std::vector<double> d =
      DistancesToNearest(std::vector<int64_t>{0, 10, 60, 100}, ref);
  EXPECT_EQ(d, (std::vector<double>{0, 10, 40, 0}));
}

TEST(UniformPointsTest, BoundsAndCount) {
  Rng rng(5);
  const auto points = UniformPoints(100, 200, 1000, &rng);
  EXPECT_EQ(points.size(), 1000u);
  for (int64_t p : points) {
    EXPECT_GE(p, 100);
    EXPECT_LT(p, 200);
  }
}

TEST(SubsampleTest, SmallInputReturnedWhole) {
  Rng rng(7);
  const std::vector<int64_t> points = {1, 2, 3};
  EXPECT_EQ(Subsample(points, 10, &rng), points);
}

TEST(SubsampleTest, DrawsDistinctElements) {
  Rng rng(9);
  std::vector<int64_t> points(100);
  for (int i = 0; i < 100; ++i) points[static_cast<size_t>(i)] = i;
  auto sample = Subsample(points, 30, &rng);
  EXPECT_EQ(sample.size(), 30u);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(std::unique(sample.begin(), sample.end()), sample.end());
  for (int64_t v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(DistancesToNearestSortedTest, MatchesBinarySearchVariant) {
  // Property check of the merged sweep against the per-point binary
  // search across random sorted inputs of varied shapes, including
  // duplicates (UniformInt over a small range collides often).
  Rng rng(77);
  for (int round = 0; round < 50; ++round) {
    const size_t np = static_cast<size_t>(rng.UniformInt(0, 40));
    const size_t nr = static_cast<size_t>(rng.UniformInt(1, 20));
    const int64_t range = rng.UniformInt(1, round < 25 ? 30 : 100000);
    std::vector<int64_t> points, ref;
    for (size_t i = 0; i < np; ++i) points.push_back(rng.UniformInt(0, range));
    for (size_t i = 0; i < nr; ++i) ref.push_back(rng.UniformInt(0, range));
    std::sort(points.begin(), points.end());
    std::sort(ref.begin(), ref.end());
    const std::vector<double> expected = DistancesToNearest(points, ref);
    EXPECT_EQ(DistancesToNearestSorted(points, ref), expected);
    std::vector<int64_t> ints;
    DistancesToNearestSorted(points, ref, &ints);
    ASSERT_EQ(ints.size(), expected.size());
    for (size_t i = 0; i < ints.size(); ++i) {
      EXPECT_EQ(static_cast<double>(ints[i]), expected[i]);
    }
  }
}

TEST(DistancesToNearestSortedTest, EmptyPointsAndSingletonRef) {
  const std::vector<int64_t> none;
  const std::vector<int64_t> ref = {5};
  EXPECT_TRUE(DistancesToNearestSorted(none, ref).empty());
  EXPECT_EQ(DistancesToNearestSorted(std::vector<int64_t>{1, 5, 9}, ref),
            (std::vector<double>{4, 0, 4}));
}

// Builds a homogeneous Poisson-ish process on [0, horizon).
std::vector<int64_t> RandomProcess(int64_t horizon, size_t count, Rng* rng) {
  std::vector<int64_t> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(rng->UniformInt(0, horizon - 1));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(MedianDistanceTestTest, DetectsCorrelatedProcess) {
  Rng rng(42);
  const int64_t horizon = 3600 * 1000;
  const std::vector<int64_t> a = RandomProcess(horizon, 500, &rng);
  // b fires within 50-250 ms after events of a (a caller-callee pattern).
  std::vector<int64_t> b;
  for (size_t i = 0; i < a.size(); i += 2) {
    b.push_back(a[i] + rng.UniformInt(50, 250));
  }
  std::sort(b.begin(), b.end());
  MedianDistanceTestConfig config;
  const auto result = MedianDistanceTest(a, b, 0, horizon, config, &rng);
  EXPECT_TRUE(result.positive);
  EXPECT_LT(result.ci_target.upper, result.ci_random.lower);
}

TEST(MedianDistanceTestTest, RejectsIndependentProcess) {
  // Property sweep over seeds: independent processes must essentially
  // never test positive (one-sided 95% CIs both ways).
  int positives = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(1000 + seed);
    const int64_t horizon = 3600 * 1000;
    const std::vector<int64_t> a = RandomProcess(horizon, 400, &rng);
    const std::vector<int64_t> b = RandomProcess(horizon, 400, &rng);
    MedianDistanceTestConfig config;
    positives += MedianDistanceTest(a, b, 0, horizon, config, &rng).positive;
  }
  EXPECT_LE(positives, 1);
}

TEST(MedianDistanceTestTest, EmptySequencesAreNegative) {
  Rng rng(3);
  MedianDistanceTestConfig config;
  const std::vector<int64_t> none, one{1}, two{2}, pair{1, 2};
  EXPECT_FALSE(MedianDistanceTest(none, pair, 0, 100, config, &rng).positive);
  EXPECT_FALSE(MedianDistanceTest(pair, none, 0, 100, config, &rng).positive);
  EXPECT_FALSE(MedianDistanceTest(one, two, 100, 100, config, &rng).positive);
}

TEST(MedianDistanceTestTest, TinySamplesCannotReachLevel) {
  // With 3 points the 95% order-statistics CI does not exist; the test
  // must return negative rather than crash or fabricate a decision.
  Rng rng(4);
  MedianDistanceTestConfig config;
  config.sample_size = 3;
  const std::vector<int64_t> a = {100, 200, 300};
  const std::vector<int64_t> b = {101, 201, 301};
  EXPECT_FALSE(MedianDistanceTest(a, b, 0, 1000, config, &rng).positive);
}

TEST(MedianDistanceTestTest, OneSidedness) {
  // b far from a ("repelled"): dist(b, A) LARGER than random must not be
  // positive — the test is one-sided by design.
  Rng rng(11);
  std::vector<int64_t> a, b;
  for (int i = 0; i < 300; ++i) {
    a.push_back(i * 10000);       // every 10 s
    b.push_back(i * 10000 + 5000);  // exactly between a's events
  }
  MedianDistanceTestConfig config;
  const auto result = MedianDistanceTest(a, b, 0, 300 * 10000, config, &rng);
  EXPECT_FALSE(result.positive);
}

TEST(MedianDistanceTestWithBaselineTest, DetectsAgainstIntensityBaseline) {
  // A bursty hour: both the pair's activity and the overall stream
  // concentrate in bursts. Against a uniform baseline every co-bursting
  // app looks dependent; against the intensity-proportional baseline the
  // genuinely coupled pair still stands out.
  Rng rng(21);
  std::vector<int64_t> a, b, others;
  for (int burst = 0; burst < 40; ++burst) {
    const int64_t t0 = burst * 90000;
    for (int i = 0; i < 12; ++i) {
      const int64_t t = t0 + rng.UniformInt(0, 4000);
      a.push_back(t);
      b.push_back(t + rng.UniformInt(5, 20));  // tightly coupled to a
      others.push_back(t0 + rng.UniformInt(0, 4000));
    }
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<int64_t> all = a;
  all.insert(all.end(), b.begin(), b.end());
  all.insert(all.end(), others.begin(), others.end());
  std::sort(all.begin(), all.end());

  MedianDistanceTestConfig config;
  const auto coupled = MedianDistanceTestWithBaseline(
      a, b, all, /*baseline_jitter=*/250, config, &rng);
  EXPECT_TRUE(coupled.positive);
  // `others` shares the bursts but is not coupled beyond them: the
  // intensity baseline absorbs the burst structure, so no detection.
  std::sort(others.begin(), others.end());
  const auto burst_only = MedianDistanceTestWithBaseline(
      a, others, all, 250, config, &rng);
  EXPECT_FALSE(burst_only.positive);
}

TEST(MedianDistanceTestWithBaselineTest, EmptyInputsNegative) {
  Rng rng(3);
  MedianDistanceTestConfig config;
  const std::vector<int64_t> none, one{1}, two{2};
  EXPECT_FALSE(MedianDistanceTestWithBaseline(none, one, one, 0, config, &rng)
                   .positive);
  EXPECT_FALSE(MedianDistanceTestWithBaseline(one, none, one, 0, config, &rng)
                   .positive);
  EXPECT_FALSE(MedianDistanceTestWithBaseline(one, two, none, 0, config, &rng)
                   .positive);
}

TEST(MedianDistanceTestTest, SamplesExposedForDiagnostics) {
  Rng rng(13);
  const std::vector<int64_t> a = RandomProcess(100000, 200, &rng);
  const std::vector<int64_t> b = RandomProcess(100000, 200, &rng);
  MedianDistanceTestConfig config;
  config.sample_size = 50;
  const auto result = MedianDistanceTest(a, b, 0, 100000, config, &rng);
  EXPECT_EQ(result.sample_random.size(), 50u);
  EXPECT_EQ(result.sample_target.size(), 50u);
}

TEST(BinCountSeriesTest, OneSecondBins) {
  // Figure 1's transformation: events -> logs per second.
  const std::vector<int64_t> events = {0, 500, 999, 1000, 2500, 5999};
  const auto counts = BinCountSeries(events, 0, 6000, 1000);
  EXPECT_EQ(counts, (std::vector<int64_t>{3, 1, 1, 0, 0, 1}));
}

TEST(BinCountSeriesTest, IgnoresOutOfWindowEvents) {
  // -5 is before the window; 200 and 999 are at/after the exclusive end.
  const std::vector<int64_t> events = {-5, 0, 100, 200, 999};
  const auto counts = BinCountSeries(events, 0, 200, 100);
  EXPECT_EQ(counts, (std::vector<int64_t>{1, 1}));
}

TEST(BinCountSeriesTest, PartialLastBin) {
  const auto counts = BinCountSeries({240}, 0, 250, 100);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[2], 1);
}

}  // namespace
}  // namespace logmine::stats
