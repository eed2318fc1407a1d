#ifndef LOGMINE_CORE_EVALUATION_H_
#define LOGMINE_CORE_EVALUATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dependency.h"

namespace logmine::core {

/// Confusion counts of a discovered model against a reference model.
/// `universe` is the number of possible pairs (e.g. 1431 for 54 apps),
/// needed for the true-negative count and classification error rate.
struct ConfusionCounts {
  int64_t true_positives = 0;
  int64_t false_positives = 0;
  int64_t false_negatives = 0;
  int64_t universe = 0;

  int64_t positives() const { return true_positives + false_positives; }
  int64_t true_negatives() const {
    return universe - true_positives - false_positives - false_negatives;
  }
  /// Ratio of true positives among positive decisions (the number printed
  /// above the bars in figures 5, 6 and 8). 0 when there are no positives.
  double tp_ratio() const;
  double precision() const { return tp_ratio(); }
  double recall() const;
  /// Classification error among the *unrelated* pairs (§4.5 discusses 25
  /// FP over 1253 unrelated pairs ~ 2%).
  double false_positive_rate() const;

  bool operator==(const ConfusionCounts&) const = default;
};

/// Compares `predicted` to `reference`. When `universe` is 0 it defaults
/// to reference.size() + predicted.size() (no meaningful TN count).
ConfusionCounts Evaluate(const DependencyModel& predicted,
                         const DependencyModel& reference, int64_t universe);

/// Per-day evaluation series used by the figure benches.
struct DailySeries {
  std::vector<std::string> day_labels;
  std::vector<ConfusionCounts> days;

  std::vector<double> TpRatios() const;
  std::vector<double> TruePositives() const;
  std::vector<double> FalsePositives() const;

  bool operator==(const DailySeries&) const = default;
};

}  // namespace logmine::core

#endif  // LOGMINE_CORE_EVALUATION_H_
