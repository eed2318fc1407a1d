#include "core/partial_model.h"

#include <algorithm>
#include <string>

namespace logmine::core {

int CoverageReport::covered_cells() const {
  return static_cast<int>(
      std::count(covered.begin(), covered.end(), uint8_t{1}));
}

double CoverageReport::fraction() const {
  const int total = total_cells();
  if (total == 0) return 1.0;
  return static_cast<double>(covered_cells()) / static_cast<double>(total);
}

bool CoverageReport::IsCovered(int day, int range_index) const {
  if (day < 0 || day >= num_days || range_index < 0 ||
      range_index >= num_ranges) {
    return false;
  }
  const size_t cell = static_cast<size_t>(day) * num_ranges + range_index;
  return cell < covered.size() && covered[cell] != 0;
}

std::vector<std::pair<int, int>> CoverageReport::MissingCells() const {
  std::vector<std::pair<int, int>> missing;
  for (int day = 0; day < num_days; ++day) {
    for (int range = 0; range < num_ranges; ++range) {
      if (!IsCovered(day, range)) missing.emplace_back(day, range);
    }
  }
  return missing;
}

std::string CoverageReport::ToJson() const {
  std::string out = "{\"num_days\": " + std::to_string(num_days) +
                    ", \"num_ranges\": " + std::to_string(num_ranges) +
                    ", \"covered_cells\": " + std::to_string(covered_cells()) +
                    ", \"total_cells\": " + std::to_string(total_cells()) +
                    ", \"fraction\": " + std::to_string(fraction()) +
                    ", \"missing\": [";
  bool first = true;
  for (const auto& [day, range] : MissingCells()) {
    if (!first) out += ", ";
    first = false;
    out += "[" + std::to_string(day) + ", " + std::to_string(range) + "]";
  }
  out += "]}";
  return out;
}

Result<MergedPartialModel> MergePartialModels(
    int num_days, int num_ranges, const std::vector<PartialModel>& parts) {
  if (num_days < 0 || num_ranges < 1) {
    return Status::InvalidArgument(
        "merge grid must have num_days >= 0 and num_ranges >= 1, got " +
        std::to_string(num_days) + " x " + std::to_string(num_ranges));
  }
  MergedPartialModel merged;
  merged.coverage.num_days = num_days;
  merged.coverage.num_ranges = num_ranges;
  merged.coverage.covered.assign(
      static_cast<size_t>(num_days) * num_ranges, 0);
  merged.daily.resize(static_cast<size_t>(num_days));

  for (const PartialModel& part : parts) {
    if (part.num_days != num_days || part.num_ranges != num_ranges) {
      return Status::InvalidArgument(
          "partial model for shard (" + std::to_string(part.shard.day) +
          ", " + std::to_string(part.shard.range_index) +
          ") was mined over a " + std::to_string(part.num_days) + " x " +
          std::to_string(part.num_ranges) + " grid, merging into " +
          std::to_string(num_days) + " x " + std::to_string(num_ranges));
    }
    if (!parts.empty() && part.state_hash != parts.front().state_hash) {
      return Status::InvalidArgument(
          "partial models come from different sweeps (state hash " +
          std::to_string(part.state_hash) + " vs " +
          std::to_string(parts.front().state_hash) +
          "); refusing to merge");
    }
    if (part.shard.day < 0 || part.shard.day >= num_days ||
        part.shard.range_index < 0 || part.shard.range_index >= num_ranges) {
      return Status::InvalidArgument(
          "shard (" + std::to_string(part.shard.day) + ", " +
          std::to_string(part.shard.range_index) + ") outside the " +
          std::to_string(num_days) + " x " + std::to_string(num_ranges) +
          " grid");
    }
    const size_t cell =
        static_cast<size_t>(part.shard.day) * num_ranges +
        part.shard.range_index;
    merged.coverage.covered[cell] = 1;
    // Set union commutes and is idempotent: any arrival order — and a
    // shard's partial listed twice — produces the same merged sets.
    merged.daily[static_cast<size_t>(part.shard.day)] =
        merged.daily[static_cast<size_t>(part.shard.day)].Union(part.model);
    merged.model = merged.model.Union(part.model);
  }
  return merged;
}

}  // namespace logmine::core
