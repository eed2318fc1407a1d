#include "obs/export.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

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

// The golden: a fresh registry with only dynamic metrics touched renders
// exactly these series (include_zero=false hides the untouched
// well-known ones). Counter and gauge values are exact by construction;
// the sketch's quantiles are too here, because each lands on a value
// the sketch clamps to an observed extreme (1 is the minimum, 100 the
// maximum).
TEST(ToOpenMetricsTest, GoldenRendering) {
  MetricsRegistry registry;
  const auto requests = registry.RegisterCounter("demo.requests");
  const auto depth = registry.RegisterGauge("demo.depth");
  const auto latency = registry.RegisterSketch("demo.latency_ms");
  registry.Add(requests, 7);
  registry.Add(depth, 3);
  registry.Observe(latency, 1);
  registry.Observe(latency, 1);
  registry.Observe(latency, 1);
  registry.Observe(latency, 100);

  OpenMetricsOptions options;
  options.include_zero = false;
  const std::string text = ToOpenMetrics(registry.Snapshot(), options);
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
  MetricsRegistry registry;
  const auto sketch = registry.RegisterSketch("demo.sketch_ms");
  for (int i = 0; i < 100; ++i) registry.Observe(sketch, 1000);

  OpenMetricsOptions options;
  options.include_zero = false;
  const std::string text = ToOpenMetrics(registry.Snapshot(), options);
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
  MetricsRegistry registry;
  const auto id = registry.RegisterCounter("ingest.lines_total");
  registry.Add(id, 5);
  OpenMetricsOptions options;
  options.include_zero = false;
  EXPECT_EQ(ToOpenMetrics(registry.Snapshot(), options),
            "# TYPE logmine_ingest_lines counter\n"
            "logmine_ingest_lines_total 5\n");
}

TEST(ToOpenMetricsTest, CustomPrefix) {
  MetricsRegistry registry;
  const auto id = registry.RegisterCounter("x");
  registry.Add(id, 1);
  OpenMetricsOptions options;
  options.prefix = "acme_";
  options.include_zero = false;
  EXPECT_EQ(ToOpenMetrics(registry.Snapshot(), options),
            "# TYPE acme_x counter\nacme_x_total 1\n");
}

}  // namespace
}  // namespace logmine::obs
