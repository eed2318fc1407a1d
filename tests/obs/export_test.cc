#include "obs/export.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace logmine::obs {
namespace {

TEST(MangleMetricNameTest, ReplacesIllegalCharacters) {
  EXPECT_EQ(MangleMetricName("serve.query_ns"), "serve_query_ns");
  EXPECT_EQ(MangleMetricName("foo.bar-baz/qux"), "foo_bar_baz_qux");
  EXPECT_EQ(MangleMetricName("already_legal_123"), "already_legal_123");
}

TEST(MangleMetricNameTest, PrefixesLeadingDigit) {
  EXPECT_EQ(MangleMetricName("9lives"), "_9lives");
  EXPECT_EQ(MangleMetricName("0"), "_0");
}

MetricsSnapshot::Entry Scalar(std::string name, MetricKind kind,
                              int64_t value) {
  MetricsSnapshot::Entry entry;
  entry.name = std::move(name);
  entry.kind = kind;
  entry.value = value;
  return entry;
}

MetricsSnapshot::Entry Sketch(std::string name,
                              std::initializer_list<int64_t> values) {
  MetricsSnapshot::Entry entry;
  entry.name = std::move(name);
  entry.kind = MetricKind::kSketch;
  for (const int64_t value : values) entry.sketch.Observe(value);
  return entry;
}

// The golden: a hand-built snapshot renders exactly these series.
// Counter and gauge values are exact by construction; the sketch's
// quantiles are too here, because each lands on a value the sketch
// clamps to an observed extreme (1 is the minimum, 100 the maximum).
TEST(ToOpenMetricsTest, GoldenRendering) {
  MetricsSnapshot snapshot;
  snapshot.entries.push_back(
      Scalar("demo.requests", MetricKind::kCounter, 7));
  snapshot.entries.push_back(Scalar("demo.depth", MetricKind::kGauge, 3));
  snapshot.entries.push_back(Sketch("demo.latency_ms", {1, 1, 1, 100}));

  const std::string text = ToOpenMetrics(snapshot);
  const std::string expected =
      "# TYPE logmine_demo_requests counter\n"
      "logmine_demo_requests_total 7\n"
      "# TYPE logmine_demo_depth gauge\n"
      "logmine_demo_depth 3\n"
      "# TYPE logmine_demo_latency_ms summary\n"
      "logmine_demo_latency_ms{quantile=\"0.5\"} 1\n"
      "logmine_demo_latency_ms{quantile=\"0.9\"} 100\n"
      "logmine_demo_latency_ms{quantile=\"0.99\"} 100\n"
      "logmine_demo_latency_ms{quantile=\"0.999\"} 100\n"
      "logmine_demo_latency_ms_sum 103\n"
      "logmine_demo_latency_ms_count 4\n";
  EXPECT_EQ(text, expected);
}

TEST(ToOpenMetricsTest, SketchRendersAsSummaryWithinRelativeError) {
  MetricsSnapshot snapshot;
  MetricsSnapshot::Entry sketch = Sketch("demo.sketch_ms", {});
  for (int i = 0; i < 100; ++i) sketch.sketch.Observe(1000);
  snapshot.entries.push_back(std::move(sketch));

  const std::string text = ToOpenMetrics(snapshot);
  EXPECT_NE(text.find("# TYPE logmine_demo_sketch_ms summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("logmine_demo_sketch_ms_sum 100000\n"),
            std::string::npos);
  EXPECT_NE(text.find("logmine_demo_sketch_ms_count 100\n"),
            std::string::npos);
  for (const char* quantile : {"0.5", "0.9", "0.99", "0.999"}) {
    const std::string needle =
        std::string("logmine_demo_sketch_ms{quantile=\"") + quantile +
        "\"} ";
    const size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos) << needle;
    const long value = std::strtol(text.c_str() + at + needle.size(),
                                   nullptr, 10);
    // Every quantile of a constant stream is the constant, up to the
    // sketch's 1% relative-error bound.
    EXPECT_NEAR(static_cast<double>(value), 1000.0, 10.0) << quantile;
  }
}

TEST(ToOpenMetricsTest, IncludeZeroRendersWellKnownMetrics) {
  MetricsRegistry registry;
  const std::string text = ToOpenMetrics(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE logmine_pipeline_runs counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("logmine_pipeline_runs_total 0\n"), std::string::npos);
  // Untouched sketches still render their quantiles, sum and count.
  EXPECT_NE(text.find("# TYPE logmine_serve_ingest_ns summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("logmine_serve_ingest_ns{quantile=\"0.99\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("logmine_serve_ingest_ns_count 0\n"),
            std::string::npos);
}

TEST(ToOpenMetricsTest, CounterAlreadyNamedTotalIsNotDoubled) {
  MetricsSnapshot snapshot;
  snapshot.entries.push_back(
      Scalar("ingest.lines_total", MetricKind::kCounter, 5));
  EXPECT_EQ(ToOpenMetrics(snapshot),
            "# TYPE logmine_ingest_lines counter\n"
            "logmine_ingest_lines_total 5\n");
}

}  // namespace
}  // namespace logmine::obs
