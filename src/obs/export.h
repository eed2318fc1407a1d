#ifndef LOGMINE_OBS_EXPORT_H_
#define LOGMINE_OBS_EXPORT_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace logmine::obs {

/// Mangles an internal metric name into a legal Prometheus metric name:
/// every character outside [a-zA-Z0-9_] becomes '_' ("serve.query_ns"
/// -> "serve_query_ns"), and a leading digit gains a '_' prefix. The
/// exporter prepends `logmine_` after mangling.
std::string MangleMetricName(std::string_view name);

/// Renders a snapshot in the Prometheus text exposition format
/// (text/plain; version 0.0.4, accepted by Prometheus and every
/// OpenMetrics scraper):
///  - counters as `<name>_total`,
///  - gauges plain,
///  - latency sketches as summaries (`{quantile="0.5|0.9|0.99|0.999"}`
///    plus `_sum`/`_count`) — quantiles carry the sketch's alpha bound.
/// Every series is named `logmine_<mangled>`, and zero-valued series are
/// rendered too, so a scraper sees a stable set.
std::string ToOpenMetrics(const MetricsSnapshot& snapshot);

}  // namespace logmine::obs

#endif  // LOGMINE_OBS_EXPORT_H_
