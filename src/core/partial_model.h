#ifndef LOGMINE_CORE_PARTIAL_MODEL_H_
#define LOGMINE_CORE_PARTIAL_MODEL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/dependency.h"
#include "util/result.h"

namespace logmine::core {

/// One cell of a (day × pair-range) shard grid. `range_index` addresses
/// a contiguous slice of the unordered source-pair universe (see
/// `PairRange` in core/l1_activity_miner.h); a grid with one range per
/// day degenerates to plain per-day sharding.
struct ShardId {
  int32_t day = 0;
  int32_t range_index = 0;
};

inline bool operator==(const ShardId& a, const ShardId& b) {
  return a.day == b.day && a.range_index == b.range_index;
}
inline bool operator<(const ShardId& a, const ShardId& b) {
  return a.day != b.day ? a.day < b.day : a.range_index < b.range_index;
}

/// The dependency model one shard task mined, plus enough provenance to
/// refuse merging pieces of different sweeps: grid dimensions and the
/// sweep's state hash (config × dataset × grid fingerprint). This is
/// the unit a sharded sweep persists, retries, resumes from and finally
/// merges — losing some of them must degrade the merged model, never
/// corrupt it.
struct PartialModel {
  ShardId shard;
  int32_t num_days = 0;
  int32_t num_ranges = 0;
  uint64_t state_hash = 0;
  DependencyModel model;
  /// Opaque per-cell bytes the shard's miner attached (L2: the day's
  /// encoded SessionBuildStats; empty otherwise). Persisted with the
  /// model, never merged.
  std::string payload;
};

/// Which cells of the shard grid made it into a merged model. Cells are
/// addressed day-major: `covered[day * num_ranges + range_index]`.
struct CoverageReport {
  int32_t num_days = 0;
  int32_t num_ranges = 0;
  std::vector<uint8_t> covered;

  int total_cells() const { return num_days * num_ranges; }
  int covered_cells() const;
  /// Covered fraction in [0, 1]; 1 for an empty grid.
  double fraction() const;
  bool complete() const { return covered_cells() == total_cells(); }
  bool IsCovered(int day, int range_index) const;
  /// Missing (day, range_index) cells in day-major order.
  std::vector<std::pair<int, int>> MissingCells() const;
  /// JSON object for CI artifacts: dimensions, counts, fraction and the
  /// explicit missing-cell list.
  std::string ToJson() const;
};

/// The result of merging surviving partial models: the union model, one
/// per-day model (union of that day's covered ranges — partial when
/// some ranges of the day are missing), and the coverage report that
/// says exactly which cells the models are missing.
struct MergedPartialModel {
  DependencyModel model;
  std::vector<DependencyModel> daily;
  CoverageReport coverage;
};

/// Merges partial models over a `num_days` × `num_ranges` grid. Order
/// independent and duplicate tolerant (set union commutes, a shard
/// whose partial appears twice is a no-op), so any permutation of `parts`
/// yields byte-identical serialized output. Fails with InvalidArgument
/// when a part's grid dimensions or state hash disagree with the rest,
/// or a shard id falls outside the grid — mixing shards of different
/// sweeps must be loud, not silently wrong.
Result<MergedPartialModel> MergePartialModels(
    int num_days, int num_ranges, const std::vector<PartialModel>& parts);

}  // namespace logmine::core

#endif  // LOGMINE_CORE_PARTIAL_MODEL_H_
