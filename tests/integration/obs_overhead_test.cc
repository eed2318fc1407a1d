// Guard on the observability tax: a fully instrumented pipeline run may
// not cost more than 3% over the same run with observability disabled
// (plus a small absolute epsilon so the check stays meaningful near the
// timer noise floor). Each run is measured in process CPU time, the work
// of every executor thread, which no wait on the scheduler adds to. The
// runs come in instrumented/uninstrumented pairs, and the guard holds
// the median pair to the budget, which a few slow runs cannot move.

#include <time.h>

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "eval/dataset.h"
#include "obs/obs.h"
#include "stats/descriptive.h"

namespace logmine::eval {
namespace {

double ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

TEST(ObsOverheadTest, InstrumentationCostsAtMostThreePercent) {
  DatasetConfig config;
  config.simulation.num_days = 1;
  config.simulation.scale = 0.2;
  auto built = BuildDataset(config);
  ASSERT_TRUE(built.ok()) << built.status();
  const Dataset& dataset = built.value();

  core::PipelineConfig pipeline_config;
  pipeline_config.l1.minlogs = 8;
  pipeline_config.l1.test.sample_size = 50;
  const core::MiningPipeline pipeline(dataset.vocabulary, pipeline_config);
  const TimeMs begin = dataset.day_begin(0);
  const TimeMs end = dataset.day_end(0);

  // Warm up caches and the executor's worker pool once per mode.
  ASSERT_TRUE(pipeline.Run(dataset.store, begin, end).ok());
  {
    obs::ObsContext warm;
    obs::ScopedGlobalObs scoped(&warm);
    ASSERT_TRUE(pipeline.Run(dataset.store, begin, end, &warm).ok());
  }

  // One pair is an uninstrumented and an instrumented run back to back,
  // in alternating order, so a change in machine speed between pairs
  // cancels within each pair and order effects cancel across pairs.
  auto run_cpu_ns = [&](bool with_obs) {
    std::optional<obs::ObsContext> context;
    std::optional<obs::ScopedGlobalObs> scoped;
    if (with_obs) scoped.emplace(&context.emplace());
    const double t0 = ProcessCpuNs();
    auto result = pipeline.Run(dataset.store, begin, end,
                               with_obs ? &*context : nullptr);
    const double elapsed = ProcessCpuNs() - t0;
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(!with_obs || (result.ok() && result.value().metrics));
    return elapsed;
  };
  // 3% relative budget, with a 2ms absolute epsilon: on a short workload
  // the CPU clock's own jitter is on the order of the whole
  // instrumentation cost, and the guard must not flake on it.
  constexpr int kPairs = 21;
  std::vector<double> excess_ns;  // instrumented minus its budget, per pair
  for (int pair = 0; pair < kPairs; ++pair) {
    const bool obs_first = pair % 2 == 1;
    const double first = run_cpu_ns(obs_first);
    const double second = run_cpu_ns(!obs_first);
    const double plain = obs_first ? second : first;
    const double instrumented = obs_first ? first : second;
    excess_ns.push_back(instrumented - (plain * 1.03 + 2e6));
  }
  EXPECT_LE(stats::Median(excess_ns), 0.0)
      << "median over " << kPairs
      << " pairs of (instrumented - 1.03 x plain - 2 ms) in process CPU ns";
}

}  // namespace
}  // namespace logmine::eval
