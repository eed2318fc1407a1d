#ifndef LOGMINE_OBS_POSTMORTEM_H_
#define LOGMINE_OBS_POSTMORTEM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace logmine::obs {

class ObsContext;

/// Knobs of the dump-on-failure path.
struct PostmortemOptions {
  /// Directory bundles are written into (created if absent). Empty
  /// disables bundling — triggers become no-ops.
  std::string dir;
  /// Journal tail lines captured.
  size_t journal_tail = 128;
};

/// Everything needed to debug a failure after the process is gone: the
/// journal tail (whose stage records carry `dur_ns`, `cpu_ns` and
/// `max_rss_kb`, so JournalToChromeTrace over it is the bundle's
/// timeline view), the merged metrics snapshot, and the config
/// fingerprint of the run — one CRC-protected snapshot-container file
/// per trigger.
struct PostmortemBundle {
  /// Container payload version (bundles, like checkpoints, refuse to
  /// parse across incompatible layouts).
  static constexpr uint32_t kVersion = 3;

  std::string run_id;
  /// Machine-readable trigger, e.g. "sweep_degraded", "sweep_failed",
  /// "batch_quarantined", "health_regression".
  std::string reason;
  /// Hierarchical span id of the failing unit ("sweep-1/d0.r2/a3").
  std::string trigger_span;
  /// Hash of the run's configuration (e.g. SweepStateHash), so a
  /// bundle can be matched to the exact config that produced it.
  uint64_t config_fingerprint = 0;
  int64_t captured_at_ns = 0;

  std::string metrics_json;           ///< MetricsSnapshot::ToJson
  std::vector<std::string> journal_tail;  ///< rendered JSONL lines
};

/// Writes `bundle` into `options.dir` as
/// `postmortem-<run_id>-<seq>.lmpm` (atomic tmp+rename; CRC footer via
/// the snapshot container). Returns the path written.
Result<std::string> WritePostmortemBundle(const PostmortemOptions& options,
                                          const PostmortemBundle& bundle);

/// Parses a bundle file; CRC or layout damage is a ParseError.
Result<PostmortemBundle> ReadPostmortemBundle(const std::string& path);

/// Captures a bundle from a live context (metrics, journal tail)
/// and writes it. The convenience entry point every
/// trigger site uses; returns the path, or NotFound when bundling is
/// disabled (empty dir). Also journals a "postmortem" event and bumps
/// the postmortem.bundles_written counter on success.
Result<std::string> CapturePostmortem(const PostmortemOptions& options,
                                      ObsContext* context,
                                      std::string_view reason,
                                      std::string_view trigger_span,
                                      uint64_t config_fingerprint);

}  // namespace logmine::obs

#endif  // LOGMINE_OBS_POSTMORTEM_H_
