#ifndef LOGMINE_OBS_LATENCY_SKETCH_H_
#define LOGMINE_OBS_LATENCY_SKETCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace logmine::obs {

/// Mergeable bounded-relative-error quantile sketch (the DDSketch
/// scheme): values land in geometric buckets of ratio
/// gamma = (1 + alpha) / (1 - alpha), so any quantile estimate is
/// within `alpha` *relative* error of some actually-observed value —
/// p999 of a microsecond-to-minutes latency distribution is as accurate
/// as p50, which log2 histograms (one power of two ≈ 100% error) cannot
/// offer.
///
/// Merge is bucket-wise integer addition: exact, associative and
/// commutative, so per-thread registry shards combine into the same
/// sketch regardless of merge order or thread count — the same
/// contract `MergePartialModels` keeps for models.
///
/// Storage is a sparse (bucket index -> count) table that only holds
/// touched buckets; a latency stream spanning ns..hours touches a few
/// hundred. Not thread-safe: one writer, or external synchronization
/// (the registry wraps each shard's sketches in a short mutex).
class LatencySketch {
 public:
  /// Default relative accuracy: 1% — p99 of a 100 ms tail is within
  /// ±1 ms.
  static constexpr double kDefaultAlpha = 0.01;

  explicit LatencySketch(double alpha = kDefaultAlpha);

  /// Records one value. Values <= 0 land in the exact zero bucket
  /// (negative durations are clock noise; they count as 0).
  void Observe(int64_t value);

  /// Adds `other`'s observations into this sketch. Precondition: equal
  /// alpha (checked; a mismatched merge is dropped and returns false —
  /// mixing error models silently would corrupt the bound).
  bool Merge(const LatencySketch& other);

  /// The value at quantile `q` in [0, 1], within `alpha` relative
  /// error of the exact empirical quantile. 0 when empty. Exact for
  /// the zero bucket, and clamped to [min, max] so a lone observation
  /// reports itself.
  int64_t Quantile(double q) const;

  int64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  double alpha() const { return alpha_; }
  /// Touched buckets (the sparse table's size), for memory accounting.
  size_t num_buckets() const { return buckets_.size(); }

 private:
  /// Bucket index of a positive value: ceil(log(v) / log(gamma)),
  /// computed in double precision (exactness of the *count* is what
  /// matters; the bucket boundary itself only needs to respect gamma).
  int32_t IndexOf(int64_t value) const;
  /// Representative value of bucket `index`: 2 * gamma^index / (gamma
  /// + 1), the midpoint minimizing worst-case relative error.
  int64_t ValueOf(int32_t index) const;

  double alpha_;
  double log_gamma_;  ///< ln(gamma), cached
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  int64_t zero_count_ = 0;
  /// Sorted sparse (index, count) pairs; sorted keeps quantile walks
  /// and merges linear.
  std::vector<std::pair<int32_t, int64_t>> buckets_;
};

}  // namespace logmine::obs

#endif  // LOGMINE_OBS_LATENCY_SKETCH_H_
