#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <sstream>

#include "util/table_printer.h"

namespace logmine::obs {
namespace {

struct MetricDef {
  std::string_view name;
  MetricKind kind;
};

// Must mirror the Metric enum exactly; VerifyMetricTable() below checks
// the count, and the unit test checks a few names by position.
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
    {"executor.indices_skipped", MetricKind::kCounter},
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

constexpr uint32_t kKindShift = 24;
constexpr uint32_t kSlotMask = (1u << kKindShift) - 1;

constexpr MetricKind KindOfId(MetricsRegistry::MetricId id) {
  return static_cast<MetricKind>(id >> kKindShift);
}

constexpr MetricsRegistry::MetricId EncodeId(MetricKind kind, size_t slot) {
  return (static_cast<uint32_t>(kind) << kKindShift) |
         static_cast<uint32_t>(slot);
}

// Precomputed enum -> encoded id table: scalar and sketch slots each
// count up in enum order.
constexpr auto kWellKnownIds = [] {
  std::array<MetricsRegistry::MetricId, kNumWellKnownMetrics> ids{};
  size_t scalars = 0;
  size_t sketches = 0;
  for (size_t i = 0; i < kNumWellKnownMetrics; ++i) {
    const MetricKind kind = kMetricDefs[i].kind;
    ids[i] = EncodeId(kind,
                      kind == MetricKind::kSketch ? sketches++ : scalars++);
  }
  return ids;
}();

constexpr size_t CountOfKind(MetricKind kind) {
  size_t n = 0;
  for (const MetricDef& def : kMetricDefs) {
    if (def.kind == kind) ++n;
  }
  return n;
}

constexpr size_t kWellKnownSketches = CountOfKind(MetricKind::kSketch);
constexpr size_t kWellKnownScalars = kNumWellKnownMetrics - kWellKnownSketches;

// The default capacities must fit every built-in metric with headroom.
static_assert(kWellKnownScalars <= MetricsOptions{}.max_scalars);
static_assert(kWellKnownSketches <= MetricsOptions{}.max_sketches);

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

MetricsRegistry::MetricId WellKnownId(Metric metric) {
  return kWellKnownIds[static_cast<size_t>(metric)];
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

  explicit Shard(const MetricsOptions& options)
      : scalars(new std::atomic<int64_t>[options.max_scalars]),
        sketches(new SketchSlot[options.max_sketches]) {
    for (size_t i = 0; i < options.max_scalars; ++i) {
      scalars[i].store(0, std::memory_order_relaxed);
    }
    for (size_t i = 0; i < options.max_sketches; ++i) {
      sketches[i].sketch = LatencySketch(options.sketch_alpha);
    }
  }

  std::unique_ptr<std::atomic<int64_t>[]> scalars;
  std::unique_ptr<SketchSlot[]> sketches;
};

MetricsRegistry::MetricsRegistry(const MetricsOptions& options)
    : registry_id_(g_next_registry_id.fetch_add(1,
                                                std::memory_order_relaxed)),
      options_(options) {
  assert(options_.max_scalars >= kWellKnownScalars);
  assert(options_.max_sketches >= kWellKnownSketches);
  scalar_names_.reserve(options_.max_scalars);
  scalar_kinds_.reserve(options_.max_scalars);
  sketch_names_.reserve(options_.max_sketches);
  for (const MetricDef& def : kMetricDefs) {
    if (def.kind == MetricKind::kSketch) {
      sketch_names_.emplace_back(def.name);
    } else {
      scalar_names_.emplace_back(def.name);
      scalar_kinds_.push_back(def.kind);
    }
  }
}

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
  auto owned = std::make_unique<Shard>(options_);
  Shard* shard = owned.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::move(owned));
  }
  tls.push_back({registry_id_, shard});
  return shard;
}

Result<MetricsRegistry::MetricId> MetricsRegistry::RegisterNamed(
    std::string_view name, MetricKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  // Each name lives in exactly one of the two slot families; a hit in
  // the right family with the right kind returns the existing id, a hit
  // anywhere else is a kind conflict.
  const auto find_in = [&name](const std::vector<std::string>& names) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return static_cast<int64_t>(i);
    }
    return int64_t{-1};
  };
  const int64_t in_scalars = find_in(scalar_names_);
  const int64_t in_sketches = find_in(sketch_names_);
  const auto conflict = [&name]() {
    return Status::AlreadyExists("metric '" + std::string(name) +
                                 "' exists with a different kind");
  };
  const auto exhausted = [&name](std::string_view family, size_t cap) {
    return Status::ResourceExhausted(
        "metric capacity exhausted registering '" + std::string(name) +
        "': " + std::string(family) + " cap " + std::to_string(cap) +
        " is full (raise MetricsOptions)");
  };
  if (kind == MetricKind::kSketch) {
    if (in_sketches >= 0) {
      return EncodeId(kind, static_cast<size_t>(in_sketches));
    }
    if (in_scalars >= 0) return conflict();
    if (sketch_names_.size() >= options_.max_sketches) {
      return exhausted("sketch", options_.max_sketches);
    }
    sketch_names_.emplace_back(name);
    return EncodeId(kind, sketch_names_.size() - 1);
  }
  if (in_scalars >= 0) {
    return scalar_kinds_[static_cast<size_t>(in_scalars)] == kind
               ? Result<MetricId>(
                     EncodeId(kind, static_cast<size_t>(in_scalars)))
               : Result<MetricId>(conflict());
  }
  if (in_sketches >= 0) return conflict();
  if (scalar_names_.size() >= options_.max_scalars) {
    return exhausted("scalar", options_.max_scalars);
  }
  scalar_names_.emplace_back(name);
  scalar_kinds_.push_back(kind);
  return EncodeId(kind, scalar_names_.size() - 1);
}

Result<MetricsRegistry::MetricId> MetricsRegistry::TryRegisterCounter(
    std::string_view name) {
  return RegisterNamed(name, MetricKind::kCounter);
}

Result<MetricsRegistry::MetricId> MetricsRegistry::TryRegisterGauge(
    std::string_view name) {
  return RegisterNamed(name, MetricKind::kGauge);
}

Result<MetricsRegistry::MetricId> MetricsRegistry::TryRegisterSketch(
    std::string_view name) {
  return RegisterNamed(name, MetricKind::kSketch);
}

MetricsRegistry::MetricId MetricsRegistry::RegisterCounter(
    std::string_view name) {
  return TryRegisterCounter(name).value_or(kInvalidMetricId);
}

MetricsRegistry::MetricId MetricsRegistry::RegisterGauge(
    std::string_view name) {
  return TryRegisterGauge(name).value_or(kInvalidMetricId);
}

MetricsRegistry::MetricId MetricsRegistry::RegisterSketch(
    std::string_view name) {
  return TryRegisterSketch(name).value_or(kInvalidMetricId);
}

void MetricsRegistry::Add(MetricId id, int64_t delta) {
  if (id == kInvalidMetricId) return;
  const size_t slot = id & kSlotMask;
  const MetricKind kind = KindOfId(id);
  // A sketch id (or a corrupted slot) must not index the scalar array;
  // dropping the write is the lock-free path's only safe option.
  assert(kind == MetricKind::kCounter || kind == MetricKind::kGauge);
  if (slot >= options_.max_scalars ||
      (kind != MetricKind::kCounter && kind != MetricKind::kGauge)) {
    return;
  }
  LocalShard()->scalars[slot].fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::Add(Metric metric, int64_t delta) {
  Add(WellKnownId(metric), delta);
}

void MetricsRegistry::Observe(MetricId id, int64_t value) {
  if (id == kInvalidMetricId) return;
  const size_t slot = id & kSlotMask;
  const MetricKind kind = KindOfId(id);
  // Observing a counter/gauge id would index the (smaller) sketch array
  // with a scalar slot — drop it instead of corrupting the shard.
  assert(kind == MetricKind::kSketch);
  if (kind != MetricKind::kSketch || slot >= options_.max_sketches) return;
  Shard::SketchSlot& sketch_slot = LocalShard()->sketches[slot];
  std::lock_guard<std::mutex> lock(sketch_slot.mu);
  sketch_slot.sketch.Observe(value);
}

void MetricsRegistry::Observe(Metric metric, int64_t value) {
  Observe(WellKnownId(metric), value);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.entries.reserve(scalar_names_.size() + sketch_names_.size());
  std::vector<int64_t> scalars(scalar_names_.size(), 0);
  std::vector<LatencySketch> sketches(
      sketch_names_.size(), LatencySketch(options_.sketch_alpha));
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (size_t i = 0; i < scalars.size(); ++i) {
      scalars[i] += shard->scalars[i].load(std::memory_order_relaxed);
    }
    for (size_t i = 0; i < sketches.size(); ++i) {
      Shard::SketchSlot& slot = shard->sketches[i];
      std::lock_guard<std::mutex> slot_lock(slot.mu);
      sketches[i].Merge(slot.sketch);
    }
  }
  for (size_t i = 0; i < scalars.size(); ++i) {
    MetricsSnapshot::Entry entry;
    entry.name = scalar_names_[i];
    entry.kind = scalar_kinds_[i];
    entry.value = scalars[i];
    snapshot.entries.push_back(std::move(entry));
  }
  for (size_t i = 0; i < sketches.size(); ++i) {
    MetricsSnapshot::Entry entry;
    entry.name = sketch_names_[i];
    entry.kind = MetricKind::kSketch;
    entry.sketch = std::move(sketches[i]);
    snapshot.entries.push_back(std::move(entry));
  }
  return snapshot;
}

}  // namespace logmine::obs
