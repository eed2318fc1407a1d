// Sharded sweep supervisor demo: partition a multi-day L1 sweep into
// (day × pair-range) shards, run them concurrently under seeded chaos,
// and show the outcomes the supervisor distinguishes:
//
//   1. a fault-free run (the baseline bytes), persisting one partial per
//      cell,
//   2. a resume after a simulated crash — one partial torn, another
//      missing — which must load every other cell, discard the torn one,
//      re-mine both and produce byte-identical merged output,
//   3. a recoverable-chaos run — seeded mine attempts that fail or
//      throw, all retried away — which must produce byte-identical
//      merged output, and
//   4. a degraded run with one permanently poisoned shard, which still
//      delivers a usable model annotated with exactly what is missing,
//      after exactly one breaker trip at retry.max_attempts attempts.
//
// Flags: --seed=1 --days=2 --scale=0.1 --ranges=3 --chaos (enable the
// recoverable-chaos pass) --coverage-out=coverage.json (write the
// degraded run's coverage report, e.g. as a CI artifact). Passes 1-2 keep
// their partials in a fresh temp dir, removed after pass 2.
// Exits non-zero if any of the invariants above fails to hold.

#include <unistd.h>

#include <climits>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/serialization.h"
#include "eval/dataset.h"
#include "eval/shard_supervisor.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using logmine::Result;
using logmine::Status;
using logmine::core::ShardId;
using logmine::eval::ShardMineFn;
using logmine::eval::ShardOutput;

/// `mine` with faults: cell (day, range) of `failures` fails its first
/// `times` attempts (INT_MAX = every attempt) — by throwing when the
/// day is odd, by returning Internal otherwise — then mines normally.
ShardMineFn FailingMine(ShardMineFn mine,
                        std::map<std::pair<int, int>, int> failures) {
  struct Budget {
    std::mutex mu;
    std::map<std::pair<int, int>, int> left;
  };
  auto budget = std::make_shared<Budget>();
  budget->left = std::move(failures);
  return [mine = std::move(mine), budget](ShardId shard) -> Result<ShardOutput> {
    {
      std::lock_guard<std::mutex> lock(budget->mu);
      auto it = budget->left.find({shard.day, shard.range_index});
      if (it != budget->left.end() && it->second > 0) {
        if (it->second != INT_MAX) --it->second;
        if (shard.day % 2 == 1) throw std::runtime_error("worker crashed");
        return Status::Internal("worker died");
      }
    }
    return mine(shard);
  };
}

}  // namespace

int main(int argc, char** argv) {
  using namespace logmine;

  CliFlags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const int num_ranges = static_cast<int>(flags.GetInt("ranges", 3));

  eval::DatasetConfig dataset_config;
  dataset_config.scenario.seed = seed;
  dataset_config.simulation.seed = seed + 1;
  dataset_config.simulation.num_days =
      static_cast<int>(flags.GetInt("days", 2));
  dataset_config.simulation.scale = flags.GetDouble("scale", 0.1);
  auto dataset_or = eval::BuildDataset(dataset_config);
  if (!dataset_or.ok()) {
    std::cerr << dataset_or.status() << "\n";
    return 1;
  }
  const eval::Dataset dataset = std::move(dataset_or).value();
  std::cout << "Corpus: " << dataset.store.size() << " logs over "
            << dataset.num_days() << " days, sharded "
            << dataset.num_days() << "x" << num_ranges << "\n";

  core::L1Config l1;
  l1.minlogs = 8;  // support floor scaled to the reduced volume
  l1.slot_length = 2 * kMillisPerHour;

  eval::ShardSupervisorConfig supervisor;
  supervisor.num_ranges = num_ranges;
  supervisor.retry.initial_backoff_ms = 1;
  supervisor.retry.max_backoff_ms = 5;

  // Passes 3 and 4 run RunL1ShardedSweep's sweep with a failing mine.
  const eval::ShardGrid grid{dataset.num_days(), num_ranges};
  const uint64_t state_hash = eval::SweepStateHash(
      dataset, eval::Technique::kL1, core::ConfigFingerprint(l1), num_ranges);
  auto faulty_sweep = [&](std::map<std::pair<int, int>, int> failures) {
    return eval::RunShardedSweep(
        grid,
        FailingMine(eval::MakeL1ShardMiner(dataset, l1, num_ranges),
                    std::move(failures)),
        supervisor, state_hash);
  };

  auto describe = [](const char* label, const eval::ShardedSweepResult& run) {
    std::cout << label << ": " << eval::SweepOutcomeName(run.outcome) << ", "
              << run.merged.coverage.covered_cells() << "/"
              << run.merged.coverage.total_cells() << " shards, "
              << run.merged.model.size() << " dependencies; "
              << run.stats.attempts << " attempts, " << run.stats.failures
              << " failures, " << run.stats.breaker_trips
              << " breaker trips\n";
  };

  // 1. Fault-free baseline, persisting one partial per cell.
  const int cells = dataset.num_days() * num_ranges;
  if (cells < 2) {
    std::cerr << "the resume pass needs at least 2 cells\n";
    return 1;
  }
  const std::filesystem::path partial_dir =
      std::filesystem::temp_directory_path() /
      ("logmine_sharded_sweep_" + std::to_string(::getpid()));
  std::filesystem::remove_all(partial_dir);
  eval::ShardSupervisorConfig resumable = supervisor;
  resumable.partial_dir = partial_dir.string();
  auto clean = eval::RunL1ShardedSweep(dataset, l1, resumable);
  if (!clean.ok()) {
    std::cerr << "clean sweep failed: " << clean.status() << "\n";
    return 1;
  }
  describe("clean   ", clean.value());
  const std::string reference = core::MergedModelBytes(clean.value().merged);

  // 2. Resume after a simulated crash: tear one partial, delete another.
  //    The re-run must load every other cell, discard the torn file, and
  //    re-mine both cells to the same bytes.
  const std::filesystem::path torn = partial_dir / "partial-d0-r0.snap";
  const std::filesystem::path lost =
      partial_dir / ("partial-d" + std::to_string(dataset.num_days() - 1) +
                     "-r" + std::to_string(num_ranges - 1) + ".snap");
  std::filesystem::resize_file(torn, std::filesystem::file_size(torn) / 2);
  std::filesystem::remove(lost);
  auto resumed = eval::RunL1ShardedSweep(dataset, l1, resumable);
  std::filesystem::remove_all(partial_dir);
  if (!resumed.ok()) {
    std::cerr << "resumed sweep failed: " << resumed.status() << "\n";
    return 1;
  }
  describe("resumed ", resumed.value());
  std::cout << "  " << resumed.value().stats.shards_loaded
            << " cells loaded from partials, "
            << resumed.value().stats.partials_discarded
            << " torn partial discarded\n";
  if (resumed.value().stats.shards_loaded != cells - 2 ||
      resumed.value().stats.partials_discarded != 1 ||
      core::MergedModelBytes(resumed.value().merged) != reference) {
    std::cerr << "INVARIANT VIOLATED: the resume did not load exactly the "
                 "intact cells and converge to the clean run's bytes\n";
    return 1;
  }
  std::cout << "  resumed run is byte-identical to the clean run\n";

  // 3. Recoverable chaos: same sweep, seeded transient faults. Must
  //    converge to the exact same bytes.
  if (flags.GetBool("chaos", true)) {
    Rng rng(seed);
    std::map<std::pair<int, int>, int> failures;
    const int64_t faulty = rng.UniformInt(1, 3);
    for (int64_t i = 0; i < faulty; ++i) {
      failures[{static_cast<int>(rng.UniformInt(0, dataset.num_days() - 1)),
                static_cast<int>(rng.UniformInt(0, num_ranges - 1))}] =
          static_cast<int>(
              rng.UniformInt(1, supervisor.retry.max_attempts - 1));
    }
    for (const auto& [cell, times] : failures) {
      std::cout << "  failing shard (" << cell.first << ", " << cell.second
                << ") x" << times << "\n";
    }
    auto survived = faulty_sweep(failures);
    if (!survived.ok()) {
      std::cerr << "chaos sweep failed: " << survived.status() << "\n";
      return 1;
    }
    describe("chaos   ", survived.value());
    if (core::MergedModelBytes(survived.value().merged) != reference) {
      std::cerr << "INVARIANT VIOLATED: recoverable chaos changed the "
                   "merged model bytes\n";
      return 1;
    }
    std::cout << "  chaos run is byte-identical to the clean run\n";
  }

  // 4. Degraded run: one shard permanently broken. The sweep must
  //    degrade gracefully and account for the loss exactly.
  const std::pair<int, int> broken{0, num_ranges - 1};
  auto degraded = faulty_sweep({{broken, INT_MAX}});
  if (!degraded.ok()) {
    std::cerr << "degraded sweep failed outright: " << degraded.status()
              << "\n";
    return 1;
  }
  describe("degraded", degraded.value());
  if (degraded.value().outcome != eval::SweepOutcome::kDegraded ||
      degraded.value().merged.coverage.MissingCells() !=
          std::vector<std::pair<int, int>>{broken}) {
    std::cerr << "INVARIANT VIOLATED: degraded run did not report exactly "
                 "the poisoned shard as missing\n";
    return 1;
  }
  // The breaker: the poisoned cell took exactly one retry loop of
  // retry.max_attempts attempts, then tripped once.
  const eval::ShardReport& poisoned =
      degraded.value().shards[static_cast<size_t>(num_ranges - 1)];
  if (degraded.value().stats.breaker_trips != 1 || !poisoned.poisoned ||
      poisoned.attempts != supervisor.retry.max_attempts) {
    std::cerr << "INVARIANT VIOLATED: the poisoned shard took "
              << poisoned.attempts << " attempts and tripped "
              << degraded.value().stats.breaker_trips
              << " breakers; expected " << supervisor.retry.max_attempts
              << " attempts and exactly 1 trip\n";
    return 1;
  }
  std::cout << "  missing cells match the permanent fault; "
            << "the other " << degraded.value().merged.coverage.covered_cells()
            << " shards' dependencies survive\n";

  const std::string coverage_out = flags.GetString("coverage-out", "");
  if (!coverage_out.empty()) {
    std::ofstream out(coverage_out);
    out << degraded.value().merged.coverage.ToJson() << "\n";
    if (!out) {
      std::cerr << "failed to write " << coverage_out << "\n";
      return 1;
    }
    std::cout << "  coverage report written to " << coverage_out << "\n";
  }
  return 0;
}
