#ifndef LOGMINE_CORE_PIPELINE_H_
#define LOGMINE_CORE_PIPELINE_H_

#include <optional>

#include "core/l1_activity_miner.h"
#include "core/l2_cooccurrence_miner.h"
#include "core/l3_text_miner.h"
#include "log/store.h"
#include "obs/obs.h"
#include "util/result.h"

namespace logmine::core {

/// Which techniques a pipeline run executes.
struct PipelineConfig {
  bool run_l1 = true;
  bool run_l2 = true;
  bool run_l3 = true;
  /// Schedule the enabled miners concurrently on the shared `Executor`
  /// (they only read the store, and each is deterministic regardless of
  /// scheduling). Set false to run them strictly in sequence.
  bool concurrent_miners = true;
  L1Config l1;
  L2Config l2;
  L3Config l3;
};

/// Combined output of one pipeline run. Each enabled miner contributes a
/// (result, status) pair: exactly one of "result present, status OK" or
/// "result absent, status explains why" holds. Disabled miners have an
/// absent result and an OK status.
struct PipelineResult {
  std::optional<L1Result> l1;
  std::optional<L2Result> l2;
  std::optional<L3Result> l3;

  Status l1_status;
  Status l2_status;
  Status l3_status;

  /// Merged metrics of the run's explicit `ObsContext`, taken after the
  /// miners quiesced. Absent when `Run` was not handed a context.
  std::optional<obs::MetricsSnapshot> metrics;

  /// True when every enabled miner produced a result.
  bool all_ok() const {
    return l1_status.ok() && l2_status.ok() && l3_status.ok();
  }

  /// First non-OK miner status in L1, L2, L3 order (matching the
  /// historical fail-fast error), or OK when all succeeded.
  Status first_error() const {
    if (!l1_status.ok()) return l1_status;
    if (!l2_status.ok()) return l2_status;
    return l3_status;
  }
};

/// Façade running any subset of the three techniques over one interval —
/// the one-call public entry point used by the examples.
///
/// Fail-safe semantics: a miner that fails does not abort the run. `Run`
/// returns a non-OK Result only for run-level preconditions (index not
/// built); per-miner failures land in `PipelineResult::*_status` next to
/// whatever sibling models did succeed, so one broken technique still
/// yields a partial dependency model. A miner that throws is contained
/// the same way (Internal status) and cannot poison its siblings.
///
/// Example:
///   MiningPipeline pipeline(vocabulary, PipelineConfig{});
///   auto result = pipeline.Run(store, store.min_ts(), store.max_ts() + 1);
///   if (result.ok() && result.value().all_ok()) { ... }
class MiningPipeline {
 public:
  MiningPipeline(ServiceVocabulary vocabulary, PipelineConfig config);

  /// Pre-condition: store.index_built().
  /// `obs_context`, when non-null, receives the run's spans and counters
  /// (in addition to whatever global context the low layers see), and
  /// `PipelineResult::metrics` carries its merged snapshot; when null the
  /// run records into the global context only and the snapshot is absent.
  Result<PipelineResult> Run(const LogStore& store, TimeMs begin, TimeMs end,
                             obs::ObsContext* obs_context = nullptr) const;

  const PipelineConfig& config() const { return config_; }
  const ServiceVocabulary& vocabulary() const { return vocabulary_; }

 private:
  ServiceVocabulary vocabulary_;
  PipelineConfig config_;
};

}  // namespace logmine::core

#endif  // LOGMINE_CORE_PIPELINE_H_
