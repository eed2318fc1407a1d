#ifndef LOGMINE_STATS_POINT_PROCESS_H_
#define LOGMINE_STATS_POINT_PROCESS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "stats/order_stats_ci.h"
#include "util/rng.h"

namespace logmine::stats {

/// dist(t, A) = min_{a in A} |a - t| (equation 1 of the paper).
/// `sorted_ref` must be sorted ascending and non-empty.
///
/// All point sequences are taken as `std::span` views so the L1 miner
/// can pass slices of the store's sorted per-source index without
/// copying (a `std::vector<int64_t>` converts implicitly).
int64_t NearestDistance(int64_t t, std::span<const int64_t> sorted_ref);

/// Distances of every point in `points` to its nearest neighbour in
/// `sorted_ref` (sorted, non-empty). One binary search per point —
/// O(|points| log |ref|), no ordering requirement on `points`.
std::vector<double> DistancesToNearest(std::span<const int64_t> points,
                                       std::span<const int64_t> sorted_ref);

/// Merged-sweep variant: both inputs sorted ascending, `sorted_ref`
/// non-empty. A single two-pointer pass over both sequences —
/// O(|points| + |ref|) instead of O(|points| log |ref|) — and the L1
/// hot-path kernel (DESIGN.md §11). `out` is cleared and refilled, so a
/// caller in a loop reuses one buffer instead of allocating per call.
/// Produces exactly the same distances as `DistancesToNearest`.
void DistancesToNearestSorted(std::span<const int64_t> sorted_points,
                              std::span<const int64_t> sorted_ref,
                              std::vector<double>* out);

/// Integer-output variant of the merged sweep. Point distances are
/// integral, so the values are exactly the ones the double overload
/// yields; selecting order statistics on int64 avoids the
/// double-compare cost in the L1 hot path.
void DistancesToNearestSorted(std::span<const int64_t> sorted_points,
                              std::span<const int64_t> sorted_ref,
                              std::vector<int64_t>* out);

/// Allocating convenience overload of the merged sweep.
std::vector<double> DistancesToNearestSorted(
    std::span<const int64_t> sorted_points,
    std::span<const int64_t> sorted_ref);

/// Draws `count` points uniformly from [begin, end).
std::vector<int64_t> UniformPoints(int64_t begin, int64_t end, size_t count,
                                   logmine::Rng* rng);

/// Draws a subsample of at most `max_count` elements from `points`
/// (without replacement, order not preserved). Reservoir-based
/// (algorithm L): O(max_count) memory and O(max_count (1 + log(n/k)))
/// expected RNG draws — it never copies the whole candidate span into a
/// scratch pool, which is what makes per-slot subsampling cheap on
/// paper-scale slots.
std::vector<int64_t> Subsample(std::span<const int64_t> points,
                               size_t max_count, logmine::Rng* rng);

/// Configuration of the one-sided median-distance test.
struct MedianDistanceTestConfig {
  size_t sample_size = 200;  ///< size of both S_r and the S_b subsample
  double level = 0.95;       ///< confidence level of both median CIs
};

/// Outcome of one application of the test, with the quantities needed to
/// render the paper's figure 2 boxplots.
struct MedianDistanceTestResult {
  bool positive = false;  ///< CI_b entirely below CI_r => dependence
  MedianCi ci_random;     ///< CI for the median of S_r
  MedianCi ci_target;     ///< CI for the median of S_b
  std::vector<double> sample_random;  ///< S_r (distances)
  std::vector<double> sample_target;  ///< S_b (distances)
};

/// The core L1 test (§3.1): compares the typical distance of B's points to
/// A against the typical distance of uniformly random points to A, using
/// order-statistics confidence intervals for the median. One-sided:
/// positive iff upper(CI_b) < lower(CI_r).
///
/// `a` and `b` must be sorted ascending. Returns a negative (non-positive)
/// result when either sequence is empty or the samples are too small for
/// the requested level.
MedianDistanceTestResult MedianDistanceTest(
    std::span<const int64_t> a, std::span<const int64_t> b,
    int64_t interval_begin, int64_t interval_end,
    const MedianDistanceTestConfig& config, logmine::Rng* rng);

/// Variant with an explicit reference sample instead of uniform points —
/// the paper's §5 refinement: "use a non-homogenous process whose
/// intensity is proportional to the total number of logs". Pass (a
/// subsample of) the slot's all-source timestamps as `baseline_points`;
/// they are subsampled to `config.sample_size` and jittered by
/// +-`baseline_jitter` so that B's own logs do not trivially collide.
MedianDistanceTestResult MedianDistanceTestWithBaseline(
    std::span<const int64_t> a, std::span<const int64_t> b,
    std::span<const int64_t> baseline_points, int64_t baseline_jitter,
    const MedianDistanceTestConfig& config, logmine::Rng* rng);

/// Counts events per fixed-width time bin over [begin, end): the series
/// behind the paper's figure 1 ("number of logs per second"). Events
/// outside the window are ignored. `bin_width` must be positive.
std::vector<int64_t> BinCountSeries(const std::vector<int64_t>& events,
                                    int64_t begin, int64_t end,
                                    int64_t bin_width);

}  // namespace logmine::stats

#endif  // LOGMINE_STATS_POINT_PROCESS_H_
