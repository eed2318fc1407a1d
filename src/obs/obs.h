#ifndef LOGMINE_OBS_OBS_H_
#define LOGMINE_OBS_OBS_H_

#include <cstdint>
#include <optional>

#include "obs/journal.h"
#include "obs/metrics.h"

namespace logmine::obs {

/// Knobs of one observability context.
struct ObsOptions {
  /// Event journal; the default (no path) keeps it memory-only, which
  /// still feeds the introspection tail, postmortem bundles and the
  /// Chrome-trace view (JournalToChromeTrace).
  JournalOptions journal;
};

/// One metrics registry and one structured event journal — the unit a
/// pipeline run (or a whole process) records into. Thread-safe; cheap to
/// pass by pointer, with nullptr meaning "observability off".
class ObsContext {
 public:
  explicit ObsContext(const ObsOptions& options = {})
      : journal_(options.journal, &metrics_) {}

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Journal& journal() { return journal_; }
  const Journal& journal() const { return journal_; }

 private:
  MetricsRegistry metrics_;
  Journal journal_;
};

/// The ambient process-wide context low-level layers (codec, store,
/// executor, snapshot I/O) record into; nullptr (the default) disables
/// them at the cost of one relaxed atomic load per instrumentation
/// point. Set it before concurrent work starts and clear it only after
/// that work quiesces — layers cache nothing, but a context swapped
/// mid-run splits its counts across the old and new registries.
ObsContext* Global();
void SetGlobal(ObsContext* context);

/// Pins the installed global context (may return null). Unlike a bare
/// `Global()` load, the returned pointer stays valid until the matching
/// `ReleaseGlobal()`: `SetGlobal` blocks until every pin is released
/// before letting the installer proceed (and, typically, destroy the
/// context). Required wherever a write can outlast the synchronization
/// point the context owner waits on — e.g. an executor worker timing a
/// task whose completion was already signalled inside the task. A null
/// return is already unpinned; call `ReleaseGlobal()` only for non-null.
ObsContext* AcquireGlobal();
void ReleaseGlobal();

/// RAII installer: sets the global context, restores the previous one
/// on destruction.
class ScopedGlobalObs {
 public:
  explicit ScopedGlobalObs(ObsContext* context) : previous_(Global()) {
    SetGlobal(context);
  }
  ~ScopedGlobalObs() { SetGlobal(previous_); }
  ScopedGlobalObs(const ScopedGlobalObs&) = delete;
  ScopedGlobalObs& operator=(const ScopedGlobalObs&) = delete;

 private:
  ObsContext* previous_;
};

/// The context a layer should record into when handed an explicit one:
/// the explicit context if non-null, else the global one (may be null).
inline ObsContext* Effective(ObsContext* explicit_context) {
  return explicit_context != nullptr ? explicit_context : Global();
}

// --- null-safe convenience wrappers -----------------------------------

inline void Count(ObsContext* context, Metric metric, int64_t delta = 1) {
  if (context != nullptr) context->metrics().Add(metric, delta);
}
inline void Observe(ObsContext* context, Metric metric, int64_t value) {
  if (context != nullptr) context->metrics().Observe(metric, value);
}
/// Into the global context (no-ops while it is unset).
inline void Count(Metric metric, int64_t delta = 1) {
  Count(Global(), metric, delta);
}
inline void Observe(Metric metric, int64_t value) {
  Observe(Global(), metric, value);
}

/// RAII span: starts a `StageClock` at construction and, at scope exit,
/// observes the duration into `latency` (when given) and journals one
/// event {"span": name, "event": "span", <stage record>} — stamped at
/// the scope's end, so it covers [ts_ns - dur_ns, ts_ns]. A null context
/// makes the whole object a no-op. Call sites that already journal the
/// same boundary put a stage record on that event instead of opening a
/// span.
class TraceSpan {
 public:
  TraceSpan(ObsContext* context, const char* name,
            std::optional<Metric> latency = std::nullopt)
      : context_(context), name_(name), latency_(latency) {
    if (context_ != nullptr) clock_.emplace();
  }

  ~TraceSpan() {
    if (context_ == nullptr) return;
    const StageRecord stage = clock_->End();
    if (latency_.has_value()) {
      context_->metrics().Observe(*latency_, stage.dur_ns);
    }
    context_->journal().Emit(name_, "span", stage);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  ObsContext* context_;
  const char* name_;
  std::optional<Metric> latency_;
  std::optional<StageClock> clock_;
};

// Scoped span over the rest of the enclosing block. Usage:
//   LOGMINE_SPAN(ctx, "l2/mine", obs::Metric::kL2MineNs);
//   LOGMINE_SPAN_GLOBAL("store/build_index");
#define LOGMINE_SPAN_CONCAT_IMPL(a, b) a##b
#define LOGMINE_SPAN_CONCAT(a, b) LOGMINE_SPAN_CONCAT_IMPL(a, b)
#define LOGMINE_SPAN(context, ...)                          \
  ::logmine::obs::TraceSpan LOGMINE_SPAN_CONCAT(            \
      logmine_span_, __LINE__)((context), __VA_ARGS__)
#define LOGMINE_SPAN_GLOBAL(...) \
  LOGMINE_SPAN(::logmine::obs::Global(), __VA_ARGS__)

}  // namespace logmine::obs

#endif  // LOGMINE_OBS_OBS_H_
