#include "obs/latency_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.h"

namespace logmine::obs {
namespace {

int64_t ExactQuantile(std::vector<int64_t> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(values.size()))),
      1, static_cast<int64_t>(values.size()));
  return values[static_cast<size_t>(rank - 1)];
}

// |sketch - exact| / exact must stay within alpha (plus floating slack).
void ExpectWithinAlpha(const LatencySketch& sketch,
                       const std::vector<int64_t>& values, double q) {
  const int64_t exact = ExactQuantile(values, q);
  const int64_t estimated = sketch.Quantile(q);
  if (exact == 0) {
    EXPECT_EQ(estimated, 0) << "q=" << q;
    return;
  }
  const double relative_error =
      std::abs(static_cast<double>(estimated) - static_cast<double>(exact)) /
      static_cast<double>(exact);
  EXPECT_LE(relative_error, sketch.alpha() + 1e-9)
      << "q=" << q << " exact=" << exact << " estimated=" << estimated;
}

TEST(LatencySketchTest, EmptySketchIsZero) {
  LatencySketch sketch;
  EXPECT_EQ(sketch.count(), 0);
  EXPECT_EQ(sketch.sum(), 0);
  EXPECT_EQ(sketch.Quantile(0.5), 0);
  EXPECT_EQ(sketch.min(), 0);
  EXPECT_EQ(sketch.max(), 0);
}

TEST(LatencySketchTest, SingleObservationReportsItself) {
  LatencySketch sketch;
  sketch.Observe(123'456'789);
  EXPECT_EQ(sketch.count(), 1);
  EXPECT_EQ(sketch.Quantile(0.0), 123'456'789);
  EXPECT_EQ(sketch.Quantile(0.5), 123'456'789);
  EXPECT_EQ(sketch.Quantile(1.0), 123'456'789);
}

TEST(LatencySketchTest, ZeroAndNegativeLandInZeroBucket) {
  LatencySketch sketch;
  sketch.Observe(0);
  sketch.Observe(-5);
  sketch.Observe(1000);
  EXPECT_EQ(sketch.count(), 3);
  EXPECT_EQ(sketch.Quantile(0.1), 0);
  EXPECT_EQ(sketch.Quantile(0.5), 0);
  ExpectWithinAlpha(sketch, {0, 0, 1000}, 1.0);
}

TEST(LatencySketchTest, RelativeErrorBoundOnRandomWorkloads) {
  // Several shapes: uniform, heavy-tailed (log-uniform over 6 decades),
  // and a latency-like mixture with a far tail. Every documented
  // quantile must be within alpha of the exact nearest-rank value.
  Rng rng(20260808);
  const double quantiles[] = {0.01, 0.1, 0.25, 0.5, 0.75, 0.9,
                              0.99, 0.999, 1.0};
  for (int shape = 0; shape < 3; ++shape) {
    LatencySketch sketch;
    std::vector<int64_t> values;
    for (int i = 0; i < 20'000; ++i) {
      int64_t v = 0;
      switch (shape) {
        case 0:
          v = rng.UniformInt(1, 1'000'000);
          break;
        case 1:
          v = static_cast<int64_t>(
              std::pow(10.0, 1.0 + 6.0 * rng.Uniform()));
          break;
        default:
          v = rng.UniformInt(0, 100) == 0 ? rng.UniformInt(1'000'000'000,
                                                           4'000'000'000)
                                          : rng.UniformInt(10'000, 90'000);
      }
      values.push_back(v);
      sketch.Observe(v);
    }
    for (double q : quantiles) ExpectWithinAlpha(sketch, values, q);
  }
}

TEST(LatencySketchTest, CoarserAlphaStillBounded) {
  Rng rng(7);
  LatencySketch sketch(0.05);
  std::vector<int64_t> values;
  for (int i = 0; i < 5'000; ++i) {
    const int64_t v = rng.UniformInt(1, 50'000'000);
    values.push_back(v);
    sketch.Observe(v);
  }
  EXPECT_DOUBLE_EQ(sketch.alpha(), 0.05);
  for (double q : {0.5, 0.9, 0.99}) ExpectWithinAlpha(sketch, values, q);
}

TEST(LatencySketchTest, MergeMatchesSingleSketchExactly) {
  // Split one stream across 4 sketches; the merge must equal the
  // sketch that saw everything — same counts, same quantiles.
  Rng rng(99);
  LatencySketch whole;
  LatencySketch parts[4];
  for (int i = 0; i < 10'000; ++i) {
    const int64_t v = rng.UniformInt(0, 10'000'000);
    whole.Observe(v);
    parts[i % 4].Observe(v);
  }
  LatencySketch merged;
  for (const LatencySketch& part : parts) ASSERT_TRUE(merged.Merge(part));
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.sum(), whole.sum());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(merged.Quantile(q), whole.Quantile(q)) << "q=" << q;
  }
}

TEST(LatencySketchTest, MergeIsOrderIndependent) {
  Rng rng(4242);
  std::vector<LatencySketch> parts(6);
  for (int p = 0; p < 6; ++p) {
    for (int i = 0; i < 500 * (p + 1); ++i) {
      parts[static_cast<size_t>(p)].Observe(rng.UniformInt(1, 1'000'000'000));
    }
  }
  LatencySketch forward;
  for (const LatencySketch& part : parts) ASSERT_TRUE(forward.Merge(part));
  LatencySketch backward;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    ASSERT_TRUE(backward.Merge(*it));
  }
  EXPECT_EQ(forward.count(), backward.count());
  EXPECT_EQ(forward.sum(), backward.sum());
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    EXPECT_EQ(forward.Quantile(q), backward.Quantile(q)) << "q=" << q;
  }
}

TEST(LatencySketchTest, MergeIsAssociative) {
  Rng rng(31337);
  LatencySketch a, b, c;
  for (int i = 0; i < 3'000; ++i) a.Observe(rng.UniformInt(1, 1'000));
  for (int i = 0; i < 3'000; ++i) b.Observe(rng.UniformInt(1'000, 1'000'000));
  for (int i = 0; i < 3'000; ++i) {
    c.Observe(rng.UniformInt(1'000'000, 1'000'000'000));
  }
  // (a + b) + c
  LatencySketch left = a;
  ASSERT_TRUE(left.Merge(b));
  ASSERT_TRUE(left.Merge(c));
  // a + (b + c)
  LatencySketch right_inner = b;
  ASSERT_TRUE(right_inner.Merge(c));
  LatencySketch right = a;
  ASSERT_TRUE(right.Merge(right_inner));
  EXPECT_EQ(left.count(), right.count());
  EXPECT_EQ(left.sum(), right.sum());
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    EXPECT_EQ(left.Quantile(q), right.Quantile(q)) << "q=" << q;
  }
}

TEST(LatencySketchTest, MergeRefusesMismatchedAlpha) {
  LatencySketch fine(0.01);
  LatencySketch coarse(0.05);
  coarse.Observe(10);
  EXPECT_FALSE(fine.Merge(coarse));
  EXPECT_EQ(fine.count(), 0);
  // Merging an *empty* sketch of any alpha is a no-op, not an error.
  EXPECT_TRUE(fine.Merge(LatencySketch(0.2)));
}

TEST(LatencySketchTest, SparseStorageStaysSmall) {
  // ns .. minutes is ~12 decades of dynamic range; at alpha = 1% that
  // is ~1400 possible buckets, and a real stream touches far fewer.
  Rng rng(5);
  LatencySketch sketch;
  for (int i = 0; i < 100'000; ++i) {
    sketch.Observe(static_cast<int64_t>(
        std::pow(10.0, 12.0 * rng.Uniform())));
  }
  EXPECT_LE(sketch.num_buckets(), 1500u);
}

}  // namespace
}  // namespace logmine::obs
