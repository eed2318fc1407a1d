#include "obs/export.h"

namespace logmine::obs {
namespace {

bool IsLegalNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

void AppendSeries(std::string_view name, std::string_view suffix,
                  std::string_view labels, std::string_view value,
                  std::string* out) {
  out->append(name);
  out->append(suffix);
  out->append(labels);
  out->push_back(' ');
  out->append(value);
  out->push_back('\n');
}

}  // namespace

std::string MangleMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    out.push_back(IsLegalNameChar(c) ? c : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string ToOpenMetrics(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricsSnapshot::Entry& entry : snapshot.entries) {
    const std::string name = "logmine_" + MangleMetricName(entry.name);
    switch (entry.kind) {
      case MetricKind::kCounter: {
        // The sample is <family>_total; a metric already named *_total
        // contributes the suffix itself rather than doubling it.
        std::string family = name;
        constexpr std::string_view kTotal = "_total";
        if (family.size() > kTotal.size() &&
            family.compare(family.size() - kTotal.size(), kTotal.size(),
                           kTotal) == 0) {
          family.resize(family.size() - kTotal.size());
        }
        out += "# TYPE " + family + " counter\n";
        AppendSeries(family, "_total", "", std::to_string(entry.value),
                     &out);
        break;
      }
      case MetricKind::kGauge: {
        out += "# TYPE " + name + " gauge\n";
        AppendSeries(name, "", "", std::to_string(entry.value), &out);
        break;
      }
      case MetricKind::kSketch: {
        out += "# TYPE " + name + " summary\n";
        for (const double q : {0.5, 0.9, 0.99, 0.999}) {
          std::string quantile = std::to_string(q);
          // Trim trailing zeros ("0.500000" -> "0.5") for stable goldens.
          while (quantile.size() > 3 && quantile.back() == '0') {
            quantile.pop_back();
          }
          AppendSeries(name, "", "{quantile=\"" + quantile + "\"}",
                       std::to_string(entry.sketch.Quantile(q)), &out);
        }
        AppendSeries(name, "_sum", "", std::to_string(entry.sketch.sum()),
                     &out);
        AppendSeries(name, "_count", "",
                     std::to_string(entry.sketch.count()), &out);
        break;
      }
    }
  }
  return out;
}

}  // namespace logmine::obs
