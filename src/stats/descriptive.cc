#include "stats/descriptive.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace logmine::stats {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  const size_t n = xs.size();
  if (n < 2) return 0.0;
  const double mean = Mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  return ss / static_cast<double>(n - 1);
}

double Stddev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double Median(std::vector<double> xs) {
  assert(!xs.empty());
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  if (n % 2 == 1) return xs[n / 2];
  return 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double Quantile(std::vector<double> xs, double q) {
  assert(!xs.empty());
  assert(q >= 0.0 && q <= 1.0);
  std::sort(xs.begin(), xs.end());
  const double h = q * (static_cast<double>(xs.size()) - 1.0);
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = static_cast<size_t>(std::ceil(h));
  return xs[lo] + (h - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

BoxplotStats Boxplot(std::vector<double> xs) {
  assert(!xs.empty());
  std::sort(xs.begin(), xs.end());
  BoxplotStats out;
  out.min = xs.front();
  out.max = xs.back();
  out.q1 = Quantile(xs, 0.25);
  out.median = Quantile(xs, 0.5);
  out.q3 = Quantile(xs, 0.75);
  const double iqr = out.q3 - out.q1;
  const double lo_fence = out.q1 - 1.5 * iqr;
  const double hi_fence = out.q3 + 1.5 * iqr;
  out.whisker_lo = out.max;
  out.whisker_hi = out.min;
  for (double x : xs) {
    if (x >= lo_fence) {
      out.whisker_lo = std::min(out.whisker_lo, x);
      break;  // sorted: the first in-fence value is the whisker.
    }
  }
  for (auto it = xs.rbegin(); it != xs.rend(); ++it) {
    if (*it <= hi_fence) {
      out.whisker_hi = *it;
      break;
    }
  }
  for (double x : xs) {
    if (x < lo_fence || x > hi_fence) ++out.num_outliers;
  }
  return out;
}

double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  assert(xs.size() == ys.size() && !xs.empty());
  const double mx = Mean(xs);
  const double my = Mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace logmine::stats
