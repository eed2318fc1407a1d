#ifndef LOGMINE_BENCH_E2E_REFERENCE_H_
#define LOGMINE_BENCH_E2E_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace logmine::e2e {

/// The machine's current speed, measured with fixed reference work that
/// no change to the library can make faster or slower: random reads from
/// a 16 MB table plus a sort, run on three threads at once — the main
/// thread and two more, as many as the jobs keep busy.
///
/// Why: a shared virtual machine — such as the 4-vCPU one the bounds were
/// measured on — drifts between speed regimes ~25 % apart that last tens
/// of seconds, and every job slows with them, so raw times of two runs
/// minutes apart differ by more than any change worth detecting.
/// Sampling the reference before each set-up and each job, and scaling
/// every reported time by kNominalNs / (the run's median reference
/// time), takes most of that drift out.
class Reference {
 public:
  /// Duration of one reference round on that machine in a fast regime;
  /// scaled times read as seconds on it.
  static constexpr double kNominalNs = 6.0e6;

  Reference();

  /// Runs three rounds and records the median round's wall time.
  void Sample();

  /// kNominalNs / median sample; 1 before the first sample.
  double factor() const;
  double median_ns() const;
  size_t samples() const { return samples_.size(); }

 private:
  std::vector<uint64_t> table_;
  std::vector<double> samples_;
};

}  // namespace logmine::e2e

#endif  // LOGMINE_BENCH_E2E_REFERENCE_H_
