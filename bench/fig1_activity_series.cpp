// Reproduces Figure 1: the logging activity (logs per second) of two
// interacting applications is visibly correlated. The paper shows
// DPIFormidoc calling DPIPublication; we render the same pair over a
// busy hour as aligned sparklines plus the correlation of their 1-second
// activity series.

#include <algorithm>
#include <iostream>
#include <span>
#include <vector>

#include "bench/bench_common.h"
#include "stats/descriptive.h"
#include "stats/point_process.h"
#include "util/string_util.h"

namespace {

std::string Sparkline(const std::vector<int64_t>& counts, size_t begin,
                      size_t end) {
  static const char* kLevels = " .:-=+*#%@";
  int64_t max_count = 1;
  for (size_t i = begin; i < end; ++i) {
    max_count = std::max(max_count, counts[i]);
  }
  std::string out;
  for (size_t i = begin; i < end; ++i) {
    const int level = static_cast<int>(
        static_cast<double>(counts[i]) / static_cast<double>(max_count) * 9);
    out += kLevels[level];
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace logmine;
  eval::Dataset dataset = bench::BuildDatasetOrDie(argc, argv);

  const auto a = dataset.store.FindSource("DPIFormidoc");
  const auto b = dataset.store.FindSource("DPIPublication");
  if (!a.ok() || !b.ok()) {
    std::cerr << "expected applications missing from the corpus\n";
    return 1;
  }
  // A busy weekday hour: day 1, 10:00-11:00.
  const TimeMs begin = dataset.day_begin(0) + 10 * kMillisPerHour;
  const TimeMs end = begin + kMillisPerHour;
  auto per_second = [&](LogStore::SourceId source) {
    const std::span<const TimeMs> ts =
        dataset.store.SourceTimestampsInRange(source, begin, end);
    return stats::BinCountSeries(std::vector<TimeMs>(ts.begin(), ts.end()),
                                 begin, end, kMillisPerSecond);
  };
  const auto series_a = per_second(a.value());
  const auto series_b = per_second(b.value());

  std::cout << "Figure 1: logs/second for two interacting applications, "
            << FormatTime(begin) << " .. " << FormatTime(end) << "\n\n";
  // Ten rows of 120 seconds each, both apps aligned.
  for (size_t row = 0; row < 5; ++row) {
    const size_t lo = row * 120, hi = lo + 120;
    std::cout << "DPIFormidoc    |" << Sparkline(series_a, lo, hi) << "|\n";
    std::cout << "DPIPublication |" << Sparkline(series_b, lo, hi) << "|\n\n";
  }

  std::vector<double> xs(series_a.begin(), series_a.end());
  std::vector<double> ys(series_b.begin(), series_b.end());
  std::cout << "correlation of the 1s activity series: "
            << FormatDouble(stats::PearsonCorrelation(xs, ys), 3)
            << " (interacting applications correlate visibly)\n";
  return 0;
}
