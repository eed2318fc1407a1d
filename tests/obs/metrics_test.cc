#include "obs/metrics.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.h"

namespace logmine::obs {
namespace {

TEST(MetricsRegistryTest, WellKnownMetricsStartAtZeroAndAdd) {
  MetricsRegistry registry;
  registry.Add(Metric::kIngestLinesTotal, 7);
  registry.Add(Metric::kIngestLinesTotal, 3);
  registry.Add(Metric::kExecutorQueueDepth, 5);
  registry.Add(Metric::kExecutorQueueDepth, -2);

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Value("ingest.lines_total"), 10);
  EXPECT_EQ(snap.Value("executor.queue_depth"), 3);
  EXPECT_EQ(snap.Value("l2.bigrams_counted"), 0);

  const MetricsSnapshot::Entry* gauge = snap.Find("executor.queue_depth");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->kind, MetricKind::kGauge);
}

// The registry's schema is exactly the Metric enum: scalars in enum
// order, then sketches in enum order. The bench JSON, postmortem bundle
// metrics sections and the METRICS scrape all rely on this order.
TEST(MetricsRegistryTest, EveryWellKnownMetricHasANameAndAnEntry) {
  MetricsRegistry registry;
  const MetricsSnapshot snap = registry.Snapshot();
  std::vector<Metric> expected;
  for (const bool sketches : {false, true}) {
    for (size_t i = 0; i < kNumWellKnownMetrics; ++i) {
      const Metric metric = static_cast<Metric>(i);
      if ((MetricKindOf(metric) == MetricKind::kSketch) == sketches) {
        expected.push_back(metric);
      }
    }
  }
  ASSERT_EQ(snap.entries.size(), kNumWellKnownMetrics);
  ASSERT_EQ(expected.size(), kNumWellKnownMetrics);
  for (size_t i = 0; i < kNumWellKnownMetrics; ++i) {
    EXPECT_FALSE(MetricName(expected[i]).empty()) << i;
    EXPECT_EQ(snap.entries[i].name, MetricName(expected[i])) << i;
    EXPECT_EQ(snap.entries[i].kind, MetricKindOf(expected[i])) << i;
  }
}

// Every well-known latency metric is a sketch: exact count and sum,
// quantiles within the sketch's relative error.
TEST(MetricsRegistryTest, HistogramTracksCountSumAndQuantiles) {
  MetricsRegistry registry;
  for (int64_t v : {1, 2, 4, 100, 1000}) {
    registry.Observe(Metric::kIngestDecodeNs, v);
  }
  const MetricsSnapshot snap = registry.Snapshot();
  const MetricsSnapshot::Entry* entry = snap.Find("ingest.decode_ns");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, MetricKind::kSketch);
  EXPECT_EQ(entry->sketch.count(), 5);
  EXPECT_EQ(entry->sketch.sum(), 1107);
  EXPECT_DOUBLE_EQ(entry->sketch.mean(), 1107.0 / 5.0);
  EXPECT_EQ(entry->sketch.Quantile(1.0), 1000);
  EXPECT_EQ(entry->sketch.Quantile(0.0), 1);
  EXPECT_NEAR(static_cast<double>(entry->sketch.Quantile(0.8)), 100.0, 1.0);
}

TEST(MetricsRegistryTest, EveryLatencyMetricIsASketch) {
  for (size_t i = 0; i < kNumWellKnownMetrics; ++i) {
    const Metric metric = static_cast<Metric>(i);
    const std::string_view name = MetricName(metric);
    if (name.size() > 3 && name.substr(name.size() - 3) == "_ns") {
      EXPECT_EQ(MetricKindOf(metric), MetricKind::kSketch) << name;
    }
  }
}

TEST(MetricsRegistryTest, QuantileUsesNearestRankNotInterpolation) {
  // Two observations, far apart: a high quantile must report the large
  // one. (A truncating rank formula returned the small bucket here.)
  MetricsRegistry registry;
  registry.Observe(Metric::kExecutorTaskNs, 100);
  registry.Observe(Metric::kExecutorTaskNs, 10'000'000);
  const MetricsSnapshot snap = registry.Snapshot();
  const MetricsSnapshot::Entry* entry = snap.Find("executor.task_ns");
  ASSERT_NE(entry, nullptr);
  EXPECT_NEAR(static_cast<double>(entry->sketch.Quantile(0.99)), 1e7, 1e5);
  EXPECT_NEAR(static_cast<double>(entry->sketch.Quantile(0.51)), 1e7, 1e5);
  EXPECT_NEAR(static_cast<double>(entry->sketch.Quantile(0.50)), 100.0, 1.0);
}

TEST(MetricsRegistryTest, QuantileClampsToObservedMax) {
  // Observations past the sketch's representable range (and single
  // observations anywhere) must report the recorded max, never a
  // bucket's nominal INT64_MAX bound.
  MetricsRegistry registry;
  const int64_t huge = int64_t{1} << 62;
  registry.Observe(Metric::kExecutorTaskNs, huge);
  const MetricsSnapshot snap = registry.Snapshot();
  const MetricsSnapshot::Entry* entry = snap.Find("executor.task_ns");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->sketch.max(), huge);
  EXPECT_EQ(entry->sketch.Quantile(0.5), huge);
  EXPECT_EQ(entry->sketch.Quantile(0.99), huge);
  EXPECT_EQ(entry->sketch.Quantile(1.0), huge);

  MetricsRegistry single;
  single.Observe(Metric::kIngestDecodeNs, 3);
  const MetricsSnapshot single_snap = single.Snapshot();
  const MetricsSnapshot::Entry* one = single_snap.Find("ingest.decode_ns");
  ASSERT_NE(one, nullptr);
  // The clamp reports the lone observation itself rather than its
  // bucket's representative value.
  EXPECT_EQ(one->sketch.Quantile(0.99), 3);
}

TEST(MetricsRegistryTest, SketchMetricsRecordAndSnapshot) {
  MetricsRegistry registry;
  EXPECT_EQ(MetricKindOf(Metric::kServeQueryNs), MetricKind::kSketch);
  EXPECT_EQ(MetricKindOf(Metric::kExecutorQueueWaitNs), MetricKind::kSketch);
  for (int i = 1; i <= 1000; ++i) {
    registry.Observe(Metric::kServeQueryNs, i * 1000);
  }
  const MetricsSnapshot snap = registry.Snapshot();
  const MetricsSnapshot::Entry* entry = snap.Find("serve.query_ns");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, MetricKind::kSketch);
  EXPECT_EQ(entry->sketch.count(), 1000);
  EXPECT_EQ(snap.Value("serve.query_ns"), 1000);
  // p50 within 1% of 500us, p99 within 1% of 990us.
  EXPECT_NEAR(static_cast<double>(entry->sketch.Quantile(0.5)), 500'000.0,
              500'000.0 * 0.011);
  EXPECT_NEAR(static_cast<double>(entry->sketch.Quantile(0.99)), 990'000.0,
              990'000.0 * 0.011);
}

// Sketch merge across shards is exact and associative, so quantiles —
// not just counts — must be identical for any thread count.
TEST(MetricsRegistryTest, SketchSnapshotIsThreadCountInvariant) {
  constexpr int64_t kTotalWrites = 8000;
  std::vector<std::string> rendered;
  for (int num_threads : {1, 2, 5, 8}) {
    MetricsRegistry registry;
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([&registry, t, num_threads] {
        for (int64_t i = t; i < kTotalWrites; i += num_threads) {
          registry.Observe(Metric::kServeQueryNs, (i * 37) % 1'000'000);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const MetricsSnapshot snap = registry.Snapshot();
    const MetricsSnapshot::Entry* entry = snap.Find("serve.query_ns");
    ASSERT_NE(entry, nullptr);
    std::string key = std::to_string(entry->sketch.count()) + "/" +
                      std::to_string(entry->sketch.sum());
    for (double q = 0.0; q <= 1.0; q += 0.05) {
      key += "," + std::to_string(entry->sketch.Quantile(q));
    }
    rendered.push_back(std::move(key));
  }
  for (size_t i = 1; i < rendered.size(); ++i) {
    EXPECT_EQ(rendered[0], rendered[i]) << "thread-count variant " << i;
  }
}

// The tentpole concurrency property: writers on many threads, each with
// its own shard, and a sum-merged snapshot that is exact once they
// quiesce. Run under the tsan preset this also proves the fast path is
// race-free.
TEST(MetricsRegistryTest, ConcurrentHammeringSumsExactly) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kIterations; ++i) {
        registry.Add(Metric::kIngestLinesTotal, 1);
        registry.Add(Metric::kExecutorQueueDepth, (i % 2 == 0) ? 1 : -1);
        registry.Observe(Metric::kIngestDecodeNs, t * kIterations + i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Value("ingest.lines_total"),
            static_cast<int64_t>(kThreads) * kIterations);
  EXPECT_EQ(snap.Value("executor.queue_depth"), 0);
  const MetricsSnapshot::Entry* decode = snap.Find("ingest.decode_ns");
  ASSERT_NE(decode, nullptr);
  EXPECT_EQ(decode->sketch.count(),
            static_cast<int64_t>(kThreads) * kIterations);
}

// Merging is a sum over shards, so the snapshot must be identical no
// matter how the same logical writes were spread across threads.
TEST(MetricsRegistryTest, SnapshotIsDeterministicForAnyThreadCount) {
  constexpr int64_t kTotalWrites = 12000;
  std::vector<std::string> rendered;
  for (int num_threads : {1, 2, 3, 8}) {
    MetricsRegistry registry;
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([&registry, t, num_threads] {
        for (int64_t i = t; i < kTotalWrites; i += num_threads) {
          registry.Add(Metric::kL2BigramsCounted, 2);
          registry.Observe(Metric::kL2MineNs, i % 4096);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    rendered.push_back(registry.Snapshot().ToJson());
  }
  for (size_t i = 1; i < rendered.size(); ++i) {
    EXPECT_EQ(rendered[0], rendered[i]) << "thread-count variant " << i;
  }
}

TEST(MetricsSnapshotTest, TextReportSkipsZeroRowsByDefault) {
  MetricsRegistry registry;
  registry.Add(Metric::kL1Runs, 2);
  const MetricsSnapshot snap = registry.Snapshot();
  const std::string text = snap.ToText();
  EXPECT_NE(text.find("l1.runs"), std::string::npos);
  EXPECT_EQ(text.find("l3.runs"), std::string::npos);
  const std::string full = snap.ToText(/*include_zero=*/true);
  EXPECT_NE(full.find("l3.runs"), std::string::npos);
}

TEST(MetricsSnapshotTest, JsonExportIsWellFormedAndComplete) {
  MetricsRegistry registry;
  registry.Add(Metric::kPipelineRuns, 1);
  registry.Observe(Metric::kPipelineRunNs, 12345);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"pipeline.runs\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"pipeline.run_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  // Balanced braces (no raw metric value can inject structure).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ObsContextTest, NullSafeHelpersAndScopedGlobal) {
  // All helpers are no-ops on a null context.
  Count(nullptr, Metric::kL1Runs);
  Observe(nullptr, Metric::kL1MineNs, 1);
  ASSERT_EQ(Global(), nullptr);

  ObsContext context;
  {
    ScopedGlobalObs scoped(&context);
    EXPECT_EQ(Global(), &context);
    Count(Metric::kL1Runs);
    { LOGMINE_SPAN_GLOBAL("test/span", Metric::kL1MineNs); }
  }
  EXPECT_EQ(Global(), nullptr);
  Count(Metric::kL1Runs);  // dropped: no global context

  const MetricsSnapshot snap = context.metrics().Snapshot();
  EXPECT_EQ(snap.Value("l1.runs"), 1);
  const MetricsSnapshot::Entry* span_latency = snap.Find("l1.mine_ns");
  ASSERT_NE(span_latency, nullptr);
  EXPECT_EQ(span_latency->sketch.count(), 1);
  EXPECT_EQ(context.journal().events_emitted(), 1u);
}

}  // namespace
}  // namespace logmine::obs
