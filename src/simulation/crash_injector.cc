#include "simulation/crash_injector.h"

#include <algorithm>

namespace logmine::sim {

std::string_view ShardFaultName(ShardFault fault) {
  switch (fault) {
    case ShardFault::kNone:
      return "none";
    case ShardFault::kFailTransient:
      return "fail-transient";
    case ShardFault::kHang:
      return "hang";
    case ShardFault::kCorruptModel:
      return "corrupt-model";
    case ShardFault::kSlow:
      return "slow";
  }
  return "unknown";
}

Result<ShardFault> ShardFaultFromName(std::string_view name) {
  for (ShardFault fault :
       {ShardFault::kNone, ShardFault::kFailTransient, ShardFault::kHang,
        ShardFault::kCorruptModel, ShardFault::kSlow}) {
    if (ShardFaultName(fault) == name) return fault;
  }
  return Status::InvalidArgument("unknown shard fault: " + std::string(name));
}

ShardFaultPlan RandomShardFaultPlan(Rng* rng, int num_days, int num_ranges,
                                    const ShardFaultPlanOptions& options) {
  ShardFaultPlan plan;
  const int cells = num_days * num_ranges;
  if (cells <= 0 || options.max_faulty_shards <= 0) return plan;
  // Draw distinct cells by shuffling the cell index space — keeps the
  // at-most-one-spec-per-shard invariant by construction.
  std::vector<int> order(cells);
  for (int i = 0; i < cells; ++i) order[i] = i;
  rng->Shuffle(&order);
  const int count = static_cast<int>(rng->UniformInt(
      1, std::min(options.max_faulty_shards, cells)));
  for (int i = 0; i < count; ++i) {
    ShardFaultSpec spec;
    spec.day = order[i] / num_ranges;
    spec.range_index = order[i] % num_ranges;
    switch (rng->UniformInt(0, 3)) {
      case 0:
        spec.fault = ShardFault::kFailTransient;
        break;
      case 1:
        spec.fault = ShardFault::kHang;
        break;
      case 2:
        spec.fault = ShardFault::kCorruptModel;
        break;
      default:
        spec.fault = ShardFault::kSlow;
        break;
    }
    if (rng->Uniform(0.0, 1.0) < options.permanent_fraction) {
      spec.times = kShardFaultAlways;
    } else {
      spec.times =
          static_cast<int>(rng->UniformInt(1, std::max(1, options.max_times)));
    }
    plan.faults.push_back(spec);
  }
  return plan;
}

const ShardFaultSpec* ShardFaultInjector::SpecFor(int day,
                                                  int range_index) const {
  for (const ShardFaultSpec& spec : plan_.faults) {
    if (spec.day == day && spec.range_index == range_index) return &spec;
  }
  return nullptr;
}

ShardFault ShardFaultInjector::OnAttempt(int day, int range_index,
                                         int attempt) const {
  const ShardFaultSpec* spec = SpecFor(day, range_index);
  if (spec == nullptr || attempt > spec->times) return ShardFault::kNone;
  return spec->fault;
}

std::vector<std::pair<int, int>> ShardFaultInjector::PermanentlyPoisoned()
    const {
  std::vector<std::pair<int, int>> cells;
  for (const ShardFaultSpec& spec : plan_.faults) {
    if (spec.times != kShardFaultAlways) continue;
    if (spec.fault == ShardFault::kSlow || spec.fault == ShardFault::kNone) {
      continue;
    }
    cells.emplace_back(spec.day, spec.range_index);
  }
  std::sort(cells.begin(), cells.end());
  return cells;
}

}  // namespace logmine::sim
