#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <sstream>

#include "util/table_printer.h"

namespace logmine::obs {
namespace {

struct MetricDef {
  std::string_view name;
  MetricKind kind;
};

// Must mirror the Metric enum exactly; the static_assert below checks
// the count, and the unit test checks the snapshot order.
constexpr MetricDef kMetricDefs[] = {
    {"ingest.lines_total", MetricKind::kCounter},
    {"ingest.records_decoded", MetricKind::kCounter},
    {"ingest.lines_quarantined", MetricKind::kCounter},
    {"ingest.bytes_decoded", MetricKind::kCounter},
    {"ingest.quarantined.bad_escape", MetricKind::kCounter},
    {"ingest.quarantined.field_count", MetricKind::kCounter},
    {"ingest.quarantined.bad_timestamp", MetricKind::kCounter},
    {"ingest.quarantined.bad_severity", MetricKind::kCounter},
    {"ingest.quarantined.empty_source", MetricKind::kCounter},
    {"ingest.quarantined.truncated_line", MetricKind::kCounter},
    {"ingest.decode_ns", MetricKind::kSketch},
    {"ingest.parallel_decodes", MetricKind::kCounter},
    {"ingest.chunks_decoded", MetricKind::kCounter},
    {"ingest.columnar_reads", MetricKind::kCounter},
    {"ingest.columnar_writes", MetricKind::kCounter},
    {"ingest.columnar_bytes_read", MetricKind::kCounter},
    {"ingest.columnar_read_ns", MetricKind::kSketch},
    {"ingest.columnar_write_ns", MetricKind::kSketch},
    {"store.index_builds", MetricKind::kCounter},
    {"store.records_indexed", MetricKind::kCounter},
    {"store.index_build_ns", MetricKind::kSketch},
    {"store.range_queries", MetricKind::kCounter},
    {"l1.runs", MetricKind::kCounter},
    {"l1.slots_total", MetricKind::kCounter},
    {"l1.slot_tests", MetricKind::kCounter},
    {"l1.pairs_tested", MetricKind::kCounter},
    {"l1.pairs_pruned", MetricKind::kCounter},
    {"l1.mine_ns", MetricKind::kSketch},
    {"l2.runs", MetricKind::kCounter},
    {"l2.sessions_built", MetricKind::kCounter},
    {"l2.session_logs_assigned", MetricKind::kCounter},
    {"l2.bigrams_counted", MetricKind::kCounter},
    {"l2.pairs_scored", MetricKind::kCounter},
    {"l2.session_build_ns", MetricKind::kSketch},
    {"l2.mine_ns", MetricKind::kSketch},
    {"l3.runs", MetricKind::kCounter},
    {"l3.logs_scanned", MetricKind::kCounter},
    {"l3.logs_stopped", MetricKind::kCounter},
    {"l3.citations_counted", MetricKind::kCounter},
    {"l3.mine_ns", MetricKind::kSketch},
    {"agrawal.runs", MetricKind::kCounter},
    {"agrawal.mine_ns", MetricKind::kSketch},
    {"executor.tasks_completed", MetricKind::kCounter},
    {"executor.parallel_loops", MetricKind::kCounter},
    {"executor.queue_depth", MetricKind::kGauge},
    {"executor.saturation", MetricKind::kCounter},
    {"executor.task_ns", MetricKind::kSketch},
    {"executor.queue_wait_ns", MetricKind::kSketch},
    {"pipeline.runs", MetricKind::kCounter},
    {"pipeline.miners_ok", MetricKind::kCounter},
    {"pipeline.miners_failed", MetricKind::kCounter},
    {"pipeline.run_ns", MetricKind::kSketch},
    {"checkpoint.snapshots_written", MetricKind::kCounter},
    {"checkpoint.bytes_written", MetricKind::kCounter},
    {"checkpoint.write_ns", MetricKind::kSketch},
    {"checkpoint.snapshots_read", MetricKind::kCounter},
    {"checkpoint.bytes_read", MetricKind::kCounter},
    {"checkpoint.read_ns", MetricKind::kSketch},
    {"checkpoint.partials_discarded", MetricKind::kCounter},
    {"retry.attempts", MetricKind::kCounter},
    {"retry.backoff_ms_total", MetricKind::kCounter},
    {"shard.attempts", MetricKind::kCounter},
    {"shard.failures", MetricKind::kCounter},
    {"shard.breaker_trips", MetricKind::kCounter},
    {"shard.completed", MetricKind::kCounter},
    {"shard.poisoned", MetricKind::kCounter},
    {"shard.attempt_ns", MetricKind::kSketch},
    {"sweep.coverage_permille", MetricKind::kGauge},
    {"serve.batches_submitted", MetricKind::kCounter},
    {"serve.batches_shed", MetricKind::kCounter},
    {"serve.batches_poisoned", MetricKind::kCounter},
    {"serve.epochs_ingested", MetricKind::kCounter},
    {"serve.epochs_aged_out", MetricKind::kCounter},
    {"serve.queue_depth", MetricKind::kGauge},
    {"serve.generations_published", MetricKind::kCounter},
    {"serve.queries", MetricKind::kCounter},
    {"serve.state_snapshots_written", MetricKind::kCounter},
    {"serve.recoveries", MetricKind::kCounter},
    {"serve.clock_regressions", MetricKind::kCounter},
    {"serve.health_transitions", MetricKind::kCounter},
    {"serve.ingest_ns", MetricKind::kSketch},
    {"serve.publish_ns", MetricKind::kSketch},
    {"serve.query_ns", MetricKind::kSketch},
    {"journal.events_emitted", MetricKind::kCounter},
    {"journal.rotations", MetricKind::kCounter},
    {"postmortem.bundles_written", MetricKind::kCounter},
};

static_assert(std::size(kMetricDefs) == kNumWellKnownMetrics,
              "kMetricDefs must mirror the Metric enum");

constexpr size_t CountOfKind(MetricKind kind) {
  size_t n = 0;
  for (const MetricDef& def : kMetricDefs) {
    if (def.kind == kind) ++n;
  }
  return n;
}

constexpr size_t kWellKnownSketches = CountOfKind(MetricKind::kSketch);
constexpr size_t kWellKnownScalars = kNumWellKnownMetrics - kWellKnownSketches;

// Enum -> shard slot: scalar and sketch slots each count up in enum
// order, which is also the order `Snapshot` lists them in.
constexpr auto kSlotOf = [] {
  std::array<uint32_t, kNumWellKnownMetrics> slots{};
  uint32_t scalars = 0;
  uint32_t sketches = 0;
  for (size_t i = 0; i < kNumWellKnownMetrics; ++i) {
    slots[i] = kMetricDefs[i].kind == MetricKind::kSketch ? sketches++
                                                           : scalars++;
  }
  return slots;
}();

std::atomic<uint64_t> g_next_registry_id{1};

std::string FormatNs(int64_t ns) {
  std::ostringstream os;
  if (ns >= 1'000'000'000) {
    os << static_cast<double>(ns) / 1e9 << "s";
  } else if (ns >= 1'000'000) {
    os << static_cast<double>(ns) / 1e6 << "ms";
  } else if (ns >= 1'000) {
    os << static_cast<double>(ns) / 1e3 << "us";
  } else {
    os << ns << "ns";
  }
  return std::move(os).str();
}

void AppendJsonString(std::string_view s, std::string* out) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
  *out += '"';
}

}  // namespace

std::string_view MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kSketch:
      return "sketch";
  }
  return "unknown";
}

std::string_view MetricName(Metric metric) {
  return kMetricDefs[static_cast<size_t>(metric)].name;
}

MetricKind MetricKindOf(Metric metric) {
  return kMetricDefs[static_cast<size_t>(metric)].kind;
}

const MetricsSnapshot::Entry* MetricsSnapshot::Find(
    std::string_view name) const {
  for (const Entry& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

int64_t MetricsSnapshot::Value(std::string_view name) const {
  const Entry* entry = Find(name);
  if (entry == nullptr) return 0;
  return entry->kind == MetricKind::kSketch ? entry->sketch.count()
                                            : entry->value;
}

std::string MetricsSnapshot::ToText(bool include_zero) const {
  TablePrinter table({"metric", "kind", "value", "mean", "p99"});
  for (const Entry& entry : entries) {
    if (entry.kind == MetricKind::kSketch) {
      if (!include_zero && entry.sketch.count() == 0) continue;
      table.AddRow({entry.name, std::string(MetricKindName(entry.kind)),
                    std::to_string(entry.sketch.count()),
                    FormatNs(static_cast<int64_t>(entry.sketch.mean())),
                    FormatNs(entry.sketch.Quantile(0.99))});
    } else {
      if (!include_zero && entry.value == 0) continue;
      table.AddRow({entry.name, std::string(MetricKindName(entry.kind)),
                    std::to_string(entry.value), "", ""});
    }
  }
  return table.ToString();
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const Entry& entry : entries) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(entry.name, &out);
    out += ": ";
    if (entry.kind == MetricKind::kSketch) {
      const LatencySketch& sketch = entry.sketch;
      out += "{\"count\": " + std::to_string(sketch.count()) +
             ", \"sum\": " + std::to_string(sketch.sum()) +
             ", \"mean\": " + std::to_string(sketch.mean()) +
             ", \"min\": " + std::to_string(sketch.min()) +
             ", \"max\": " + std::to_string(sketch.max()) +
             ", \"p50\": " + std::to_string(sketch.Quantile(0.5)) +
             ", \"p90\": " + std::to_string(sketch.Quantile(0.9)) +
             ", \"p99\": " + std::to_string(sketch.Quantile(0.99)) +
             ", \"p999\": " + std::to_string(sketch.Quantile(0.999)) +
             ", \"alpha\": " + std::to_string(sketch.alpha()) + "}";
    } else {
      out += std::to_string(entry.value);
    }
  }
  out += "}";
  return out;
}

// One thread's private slice of every metric. Relaxed atomics: the
// owning thread is the only writer, snapshots only need eventual sums
// (exact once writers quiesce), and int64 addition commutes. Sketch
// slots carry a short mutex instead — their updates are structural
// (sparse-table inserts) — which the owning thread holds for nanoseconds
// and a snapshot holds per-slot while merging.
struct MetricsRegistry::Shard {
  struct SketchSlot {
    std::mutex mu;
    LatencySketch sketch;
  };

  std::array<std::atomic<int64_t>, kWellKnownScalars> scalars{};
  std::array<SketchSlot, kWellKnownSketches> sketches;
};

MetricsRegistry::MetricsRegistry()
    : registry_id_(g_next_registry_id.fetch_add(1,
                                                std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard* MetricsRegistry::LocalShard() const {
  // Per-thread (registry -> shard) cache, keyed by the process-unique
  // registry id so a destroyed registry's entry can never alias a new
  // one at the same address.
  struct TlsEntry {
    uint64_t registry_id;
    Shard* shard;
  };
  thread_local std::vector<TlsEntry> tls;
  for (const TlsEntry& entry : tls) {
    if (entry.registry_id == registry_id_) return entry.shard;
  }
  auto owned = std::make_unique<Shard>();
  Shard* shard = owned.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::move(owned));
  }
  tls.push_back({registry_id_, shard});
  return shard;
}

void MetricsRegistry::Add(Metric metric, int64_t delta) {
  const size_t index = static_cast<size_t>(metric);
  // A sketch's slot would index the wrong array; drop the write.
  assert(kMetricDefs[index].kind != MetricKind::kSketch);
  if (kMetricDefs[index].kind == MetricKind::kSketch) return;
  LocalShard()->scalars[kSlotOf[index]].fetch_add(delta,
                                                  std::memory_order_relaxed);
}

void MetricsRegistry::Observe(Metric metric, int64_t value) {
  const size_t index = static_cast<size_t>(metric);
  // A counter's or gauge's slot would index the wrong array; drop it.
  assert(kMetricDefs[index].kind == MetricKind::kSketch);
  if (kMetricDefs[index].kind != MetricKind::kSketch) return;
  Shard::SketchSlot& slot = LocalShard()->sketches[kSlotOf[index]];
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.sketch.Observe(value);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::array<int64_t, kWellKnownScalars> scalars{};
  std::array<LatencySketch, kWellKnownSketches> sketches;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (size_t i = 0; i < kWellKnownScalars; ++i) {
      scalars[i] += shard->scalars[i].load(std::memory_order_relaxed);
    }
    for (size_t i = 0; i < kWellKnownSketches; ++i) {
      Shard::SketchSlot& slot = shard->sketches[i];
      std::lock_guard<std::mutex> slot_lock(slot.mu);
      sketches[i].Merge(slot.sketch);
    }
  }
  MetricsSnapshot snapshot;
  snapshot.entries.resize(kNumWellKnownMetrics);
  for (size_t i = 0; i < kNumWellKnownMetrics; ++i) {
    const MetricDef& def = kMetricDefs[i];
    const bool sketch = def.kind == MetricKind::kSketch;
    MetricsSnapshot::Entry& entry =
        snapshot.entries[sketch ? kWellKnownScalars + kSlotOf[i] : kSlotOf[i]];
    entry.name = def.name;
    entry.kind = def.kind;
    if (sketch) {
      entry.sketch = std::move(sketches[kSlotOf[i]]);
    } else {
      entry.value = scalars[kSlotOf[i]];
    }
  }
  return snapshot;
}

}  // namespace logmine::obs
