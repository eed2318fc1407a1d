#include "obs/latency_sketch.h"

#include <algorithm>
#include <cmath>

namespace logmine::obs {

LatencySketch::LatencySketch(double alpha) : alpha_(alpha) {
  if (!(alpha_ > 0.0) || alpha_ >= 1.0) alpha_ = kDefaultAlpha;
  log_gamma_ = std::log((1.0 + alpha_) / (1.0 - alpha_));
}

int32_t LatencySketch::IndexOf(int64_t value) const {
  // value >= 1 here (0 and negatives take the zero bucket).
  return static_cast<int32_t>(
      std::ceil(std::log(static_cast<double>(value)) / log_gamma_));
}

int64_t LatencySketch::ValueOf(int32_t index) const {
  const double gamma = std::exp(log_gamma_);
  const double v =
      2.0 * std::exp(static_cast<double>(index) * log_gamma_) / (gamma + 1.0);
  if (v >= 9.2e18) return INT64_MAX;
  return static_cast<int64_t>(std::llround(v));
}

void LatencySketch::Observe(int64_t value) {
  if (value < 0) value = 0;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (value == 0) {
    ++zero_count_;
    return;
  }
  const int32_t index = IndexOf(value);
  auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), index,
      [](const std::pair<int32_t, int64_t>& b, int32_t i) { return b.first < i; });
  if (it != buckets_.end() && it->first == index) {
    ++it->second;
  } else {
    buckets_.insert(it, {index, 1});
  }
}

bool LatencySketch::Merge(const LatencySketch& other) {
  if (other.count_ == 0) return true;
  if (alpha_ != other.alpha_) return false;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  zero_count_ += other.zero_count_;
  // Sorted two-way merge, summing counts on equal indices.
  std::vector<std::pair<int32_t, int64_t>> merged;
  merged.reserve(buckets_.size() + other.buckets_.size());
  size_t a = 0, b = 0;
  while (a < buckets_.size() || b < other.buckets_.size()) {
    if (b >= other.buckets_.size() ||
        (a < buckets_.size() && buckets_[a].first < other.buckets_[b].first)) {
      merged.push_back(buckets_[a++]);
    } else if (a >= buckets_.size() ||
               other.buckets_[b].first < buckets_[a].first) {
      merged.push_back(other.buckets_[b++]);
    } else {
      merged.push_back({buckets_[a].first,
                        buckets_[a].second + other.buckets_[b].second});
      ++a;
      ++b;
    }
  }
  buckets_ = std::move(merged);
  return true;
}

int64_t LatencySketch::Quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank over zero bucket then ascending geometric buckets.
  const int64_t rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))), 1,
      count_);
  if (rank <= zero_count_) return 0;
  int64_t seen = zero_count_;
  for (const auto& [index, bucket_count] : buckets_) {
    seen += bucket_count;
    if (seen >= rank) {
      return std::clamp(ValueOf(index), min_, max_);
    }
  }
  return max_;
}

}  // namespace logmine::obs
