// Guard on the observability tax: a fully instrumented pipeline run may
// not cost more than 3% over the same run with observability disabled
// (plus a small absolute epsilon so the check stays meaningful near the
// timer noise floor). Uses best-of-N wall times on both sides, which is
// the standard way to compare means in the presence of scheduler noise.

#include <algorithm>
#include <chrono>
#include <limits>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "eval/dataset.h"
#include "obs/obs.h"

namespace logmine::eval {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
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

  constexpr int kReps = 5;
  int64_t best_plain_ns = std::numeric_limits<int64_t>::max();
  int64_t best_obs_ns = std::numeric_limits<int64_t>::max();
  for (int rep = 0; rep < kReps; ++rep) {
    // Interleave the two modes so drift (thermal, background load) hits
    // both sides equally.
    {
      const int64_t t0 = NowNs();
      auto result = pipeline.Run(dataset.store, begin, end);
      const int64_t elapsed = NowNs() - t0;
      ASSERT_TRUE(result.ok()) << result.status();
      best_plain_ns = std::min(best_plain_ns, elapsed);
    }
    {
      obs::ObsContext context;
      obs::ScopedGlobalObs scoped(&context);
      const int64_t t0 = NowNs();
      auto result = pipeline.Run(dataset.store, begin, end, &context);
      const int64_t elapsed = NowNs() - t0;
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_TRUE(result.value().metrics.has_value());
      best_obs_ns = std::min(best_obs_ns, elapsed);
    }
  }

  // 3% relative budget, with a 2ms absolute epsilon: on a sub-70ms
  // workload a single scheduler hiccup is larger than the entire
  // instrumentation cost, and the guard must not flake on it.
  const double budget_ns = static_cast<double>(best_plain_ns) * 1.03 + 2e6;
  EXPECT_LE(static_cast<double>(best_obs_ns), budget_ns)
      << "obs-enabled best " << best_obs_ns << "ns vs plain best "
      << best_plain_ns << "ns";
}

}  // namespace
}  // namespace logmine::eval
