#ifndef LOGMINE_STATS_DESCRIPTIVE_H_
#define LOGMINE_STATS_DESCRIPTIVE_H_

#include <vector>

namespace logmine::stats {

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& xs);

/// Unbiased sample variance (n - 1 denominator); 0 for n < 2.
double Variance(const std::vector<double>& xs);

/// Square root of `Variance`.
double Stddev(const std::vector<double>& xs);

/// Sample median (average of the two central order statistics for even n).
/// Requires a non-empty sample; the input is copied and sorted.
double Median(std::vector<double> xs);

/// Linear-interpolation quantile (type 7, the R default). `q` in [0, 1].
/// Requires a non-empty sample.
double Quantile(std::vector<double> xs, double q);

/// Five-number summary plus 1.5 IQR whiskers, as rendered in the paper's
/// figure 2 boxplots.
struct BoxplotStats {
  double min = 0;
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  double max = 0;
  double whisker_lo = 0;  ///< smallest value >= q1 - 1.5 IQR
  double whisker_hi = 0;  ///< largest value <= q3 + 1.5 IQR
  int num_outliers = 0;   ///< values outside the whiskers
};

/// Computes `BoxplotStats`. Requires a non-empty sample.
BoxplotStats Boxplot(std::vector<double> xs);

/// Pearson correlation between paired samples of equal, non-zero size.
double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys);

}  // namespace logmine::stats

#endif  // LOGMINE_STATS_DESCRIPTIVE_H_
