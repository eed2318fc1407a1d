#include "stats/point_process.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

namespace logmine::stats {

int64_t NearestDistance(int64_t t, std::span<const int64_t> sorted_ref) {
  assert(!sorted_ref.empty());
  auto it = std::lower_bound(sorted_ref.begin(), sorted_ref.end(), t);
  int64_t best;
  if (it == sorted_ref.end()) {
    best = t - sorted_ref.back();
  } else {
    best = *it - t;
    if (it != sorted_ref.begin()) {
      best = std::min(best, t - *(it - 1));
    }
  }
  return best;
}

std::vector<double> DistancesToNearest(std::span<const int64_t> points,
                                       std::span<const int64_t> sorted_ref) {
  std::vector<double> out;
  out.reserve(points.size());
  for (int64_t p : points) {
    out.push_back(static_cast<double>(NearestDistance(p, sorted_ref)));
  }
  return out;
}

namespace {

// Shared merged-sweep body of the two DistancesToNearestSorted
// overloads; T is the output element type (the distances are integral,
// so double and int64_t outputs hold identical values).
template <typename T>
void DistancesToNearestSortedImpl(std::span<const int64_t> sorted_points,
                                  std::span<const int64_t> sorted_ref,
                                  std::vector<T>* out) {
  assert(!sorted_ref.empty());
  out->clear();
  out->reserve(sorted_points.size());
  // Both inputs ascend, so the reference element nearest to points[i+1]
  // is never left of the one nearest to points[i]: advance `j` while the
  // next reference element is at least as close as the current one.
  size_t j = 0;
  for (int64_t p : sorted_points) {
    while (j + 1 < sorted_ref.size() &&
           sorted_ref[j + 1] - p <= p - sorted_ref[j]) {
      ++j;
    }
    out->push_back(static_cast<T>(std::abs(sorted_ref[j] - p)));
  }
}

}  // namespace

void DistancesToNearestSorted(std::span<const int64_t> sorted_points,
                              std::span<const int64_t> sorted_ref,
                              std::vector<double>* out) {
  DistancesToNearestSortedImpl(sorted_points, sorted_ref, out);
}

void DistancesToNearestSorted(std::span<const int64_t> sorted_points,
                              std::span<const int64_t> sorted_ref,
                              std::vector<int64_t>* out) {
  DistancesToNearestSortedImpl(sorted_points, sorted_ref, out);
}

std::vector<double> DistancesToNearestSorted(
    std::span<const int64_t> sorted_points,
    std::span<const int64_t> sorted_ref) {
  std::vector<double> out;
  DistancesToNearestSorted(sorted_points, sorted_ref, &out);
  return out;
}

std::vector<int64_t> UniformPoints(int64_t begin, int64_t end, size_t count,
                                   logmine::Rng* rng) {
  assert(begin < end);
  std::vector<int64_t> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(rng->UniformInt(begin, end - 1));
  }
  return out;
}

std::vector<int64_t> Subsample(std::span<const int64_t> points,
                               size_t max_count, logmine::Rng* rng) {
  if (points.size() <= max_count) return {points.begin(), points.end()};
  if (max_count == 0) return {};
  const size_t k = max_count;
  // Pools close to the sample size: selection sampling (Knuth's
  // algorithm S). One integer draw per pool element, no transcendental
  // math, and the sample comes out in pool order (sorted when the pool
  // is sorted — the common caller then skips its own sort's work).
  // Taking element i with probability (still needed) / (pool left)
  // makes every k-subset equally likely.
  if (points.size() <= 8 * k) {
    std::vector<int64_t> out;
    out.reserve(k);
    size_t needed = k;
    for (size_t i = 0; i < points.size() && needed > 0; ++i) {
      const auto left = static_cast<int64_t>(points.size() - i);
      if (rng->UniformInt(0, left - 1) <
          static_cast<int64_t>(needed)) {
        out.push_back(points[i]);
        --needed;
      }
    }
    return out;
  }
  // Much larger pools: reservoir sampling with random jumps (Li's
  // algorithm L): keep the first k elements, then skip geometrically
  // ahead and replace a random reservoir slot. Every k-subset of
  // positions is equally likely, no O(n) pool copy, and the expected
  // number of RNG draws is O(k (1 + log(n / k))).
  std::vector<int64_t> reservoir(points.begin(),
                                 points.begin() + static_cast<ptrdiff_t>(k));
  const double inv_k = 1.0 / static_cast<double>(k);
  // w is the running maximum of k uniforms; log(0) from an exactly-zero
  // draw degrades to an infinite skip (loop ends), never a crash.
  double w = std::exp(std::log(rng->Uniform()) * inv_k);
  size_t i = k - 1;
  while (true) {
    const double jump =
        std::floor(std::log(rng->Uniform()) / std::log1p(-w));
    // A huge jump (or inf from w rounding to 0 or the uniform drawing 0)
    // steps past the end; guard before converting to avoid UB.
    if (!(jump < static_cast<double>(points.size()))) break;
    i += static_cast<size_t>(jump) + 1;
    if (i >= points.size()) break;
    reservoir[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(k) - 1))] = points[i];
    w *= std::exp(std::log(rng->Uniform()) * inv_k);
  }
  return reservoir;
}

namespace {

// Shared tail of both test variants: computes the distance samples and
// compares the median CIs one-sidedly.
MedianDistanceTestResult FinishTest(std::span<const int64_t> a,
                                    std::span<const int64_t> b_sample,
                                    std::span<const int64_t> reference,
                                    const MedianDistanceTestConfig& config) {
  MedianDistanceTestResult out;
  out.sample_random = DistancesToNearest(reference, a);
  out.sample_target = DistancesToNearest(b_sample, a);
  auto ci_r = MedianConfidenceInterval(out.sample_random, config.level);
  auto ci_b = MedianConfidenceInterval(out.sample_target, config.level);
  if (!ci_r.ok() || !ci_b.ok()) return out;  // samples too small
  out.ci_random = ci_r.value();
  out.ci_target = ci_b.value();
  out.positive = out.ci_target.upper < out.ci_random.lower;
  return out;
}

}  // namespace

MedianDistanceTestResult MedianDistanceTest(
    std::span<const int64_t> a, std::span<const int64_t> b,
    int64_t interval_begin, int64_t interval_end,
    const MedianDistanceTestConfig& config, logmine::Rng* rng) {
  if (a.empty() || b.empty() || interval_begin >= interval_end) return {};
  const std::vector<int64_t> random_points =
      UniformPoints(interval_begin, interval_end, config.sample_size, rng);
  const std::vector<int64_t> b_sample =
      Subsample(b, config.sample_size, rng);
  return FinishTest(a, b_sample, random_points, config);
}

MedianDistanceTestResult MedianDistanceTestWithBaseline(
    std::span<const int64_t> a, std::span<const int64_t> b,
    std::span<const int64_t> baseline_points, int64_t baseline_jitter,
    const MedianDistanceTestConfig& config, logmine::Rng* rng) {
  if (a.empty() || b.empty() || baseline_points.empty()) return {};
  std::vector<int64_t> reference =
      Subsample(baseline_points, config.sample_size, rng);
  if (baseline_jitter > 0) {
    for (int64_t& point : reference) {
      point += rng->UniformInt(-baseline_jitter, baseline_jitter);
    }
  }
  const std::vector<int64_t> b_sample =
      Subsample(b, config.sample_size, rng);
  return FinishTest(a, b_sample, reference, config);
}

std::vector<int64_t> BinCountSeries(const std::vector<int64_t>& events,
                                    int64_t begin, int64_t end,
                                    int64_t bin_width) {
  assert(begin < end && bin_width > 0);
  const auto num_bins =
      static_cast<size_t>((end - begin + bin_width - 1) / bin_width);
  std::vector<int64_t> counts(num_bins, 0);
  for (int64_t t : events) {
    if (t < begin || t >= end) continue;
    counts[static_cast<size_t>((t - begin) / bin_width)] += 1;
  }
  return counts;
}

}  // namespace logmine::stats
