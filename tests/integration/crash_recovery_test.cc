// The acceptance property of the sweep engine's resume: whatever a crash
// leaves in the partial dir — any subset of the cells' partials, a torn
// file at a missing cell's final path, a stray .tmp, a technique
// finished while the next has not started — a re-run converges to a
// result byte-identical to an uninterrupted run. A crash can only stop
// partials from appearing (each is written tmp+rename), so every
// post-crash state is built here directly from a clean run's partials
// instead of killing a process. Identity covers MergedModelBytes, the
// daily series, the L2 session stats and the folded tracker, so drift
// anywhere in the stack fails the test.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_tracker.h"
#include "core/serialization.h"
#include "eval/daily_runner.h"
#include "eval/dataset.h"
#include "eval/shard_supervisor.h"
#include "util/rng.h"

namespace logmine::eval {
namespace {

namespace fs = std::filesystem;

constexpr int kL1Ranges = 3;
constexpr Technique kTechniques[] = {Technique::kL1, Technique::kL2,
                                     Technique::kL3};

class CrashRecoveryTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.simulation.num_days = 2;
    config.simulation.scale = 0.1;
    auto built = BuildDataset(config);
    ASSERT_TRUE(built.ok()) << built.status();
    dataset_ = new Dataset(std::move(built).value());

    reference_dir_ = new std::string(FreshDir("crash_reference"));
    auto reference = RunSweep(*dataset_, Config(), Supervisor(*reference_dir_));
    ASSERT_TRUE(reference.ok()) << reference.status();
    reference_ = new std::vector<RunFingerprint>(
        {Fingerprint(*reference.value().l1), Fingerprint(*reference.value().l2),
         Fingerprint(*reference.value().l3)});
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    delete reference_;
    reference_ = nullptr;
    delete reference_dir_;
    reference_dir_ = nullptr;
  }

  static SweepConfig Config() {
    SweepConfig config;
    // Scaled-down corpus (0.1 of production volume): proportionally
    // lower L1 support floor, coarser slots to keep the test fast.
    config.l1.minlogs = 8;
    config.l1.slot_length = 2 * kMillisPerHour;
    return config;
  }

  static ShardSupervisorConfig Supervisor(const std::string& dir) {
    ShardSupervisorConfig config;
    config.num_ranges = kL1Ranges;  // L1 runs a 2x3 grid, L2/L3 2x1
    config.retry.initial_backoff_ms = 1;
    config.retry.max_backoff_ms = 2;
    config.partial_dir = dir;
    return config;
  }

  static std::string FreshDir(const std::string& name) {
    // Suffixed with the pid: ctest runs each case of this suite as its
    // own parallel process, and every process rebuilds the suite-level
    // reference dir in SetUpTestSuite — fixed names would collide.
    const fs::path dir = fs::path(::testing::TempDir()) /
                         (name + "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
  }

  /// Every cell of `technique`'s grid, day-major.
  static std::vector<core::ShardId> Cells(Technique technique) {
    const int ranges = technique == Technique::kL1 ? kL1Ranges : 1;
    std::vector<core::ShardId> cells;
    for (int day = 0; day < dataset_->num_days(); ++day) {
      for (int range = 0; range < ranges; ++range) cells.push_back({day, range});
    }
    return cells;
  }

  static fs::path CellPath(const std::string& dir, Technique technique,
                           core::ShardId cell) {
    return fs::path(dir) / TechniqueName(technique) /
           ("partial-d" + std::to_string(cell.day) + "-r" +
            std::to_string(cell.range_index) + ".snap");
  }

  /// Puts the reference run's partials of `cells` into `dir` — the
  /// partial dir a crash leaves once exactly those cells were written.
  static void Keep(const std::string& dir, Technique technique,
                   const std::vector<core::ShardId>& cells) {
    fs::create_directories(fs::path(dir) / TechniqueName(technique));
    for (const core::ShardId& cell : cells) {
      fs::copy_file(CellPath(*reference_dir_, technique, cell),
                    CellPath(dir, technique, cell));
    }
  }

  /// What the resume promises to reproduce for one technique: the bytes
  /// of the merged model, session stats and the tracker folded over the
  /// per-day models, and the daily series.
  struct RunFingerprint {
    std::string bytes;
    core::DailySeries series;
    bool operator==(const RunFingerprint&) const = default;
  };

  static RunFingerprint Fingerprint(const DailyRunResult& run) {
    SnapshotWriter w;
    w.BeginSection("merged");
    w.PutString(core::MergedModelBytes(run.merged));
    w.EndSection();
    w.BeginSection("sessions");
    w.PutU64(run.session_stats.size());
    for (const core::SessionBuildStats& stats : run.session_stats) {
      core::EncodeSessionBuildStats(stats, &w);
    }
    w.EndSection();
    w.BeginSection("tracker");
    core::ModelTracker tracker{core::ModelTrackerConfig{}};
    for (const core::DependencyModel& model : run.merged.daily) {
      tracker.Observe(model);
    }
    core::EncodeModelTracker(tracker, &w);
    w.EndSection();
    return {std::move(w).Finish(), run.series};
  }

  /// Re-runs the sweep over the post-crash `dir` and asserts every
  /// technique is byte-identical to the uninterrupted reference.
  static void RecoverAndExpectIdentical(const std::string& dir,
                                        const std::string& context,
                                        SweepResult* out = nullptr) {
    auto recovered = RunSweep(*dataset_, Config(), Supervisor(dir));
    ASSERT_TRUE(recovered.ok()) << context << ": " << recovered.status();
    const SweepResult& sweep = recovered.value();
    ASSERT_TRUE(sweep.l1 && sweep.l2 && sweep.l3) << context;
    EXPECT_EQ(Fingerprint(*sweep.l1), (*reference_)[0])
        << context << ": L1 diverged";
    EXPECT_EQ(Fingerprint(*sweep.l2), (*reference_)[1])
        << context << ": L2 diverged";
    EXPECT_EQ(Fingerprint(*sweep.l3), (*reference_)[2])
        << context << ": L3 diverged";
    if (out != nullptr) *out = recovered.value();
  }

  static Dataset* dataset_;
  static std::vector<RunFingerprint>* reference_;  // per technique
  static std::string* reference_dir_;              // the clean run's partials
};

Dataset* CrashRecoveryTest::dataset_ = nullptr;
std::vector<CrashRecoveryTest::RunFingerprint>* CrashRecoveryTest::reference_ =
    nullptr;
std::string* CrashRecoveryTest::reference_dir_ = nullptr;

TEST_F(CrashRecoveryTest, EveryKillPointRecoversToIdenticalBytes) {
  // A crash inside L2 or L3 leaves the earlier techniques complete and
  // any subset of the current one's cells written.
  for (const Technique current : {Technique::kL2, Technique::kL3}) {
    const std::vector<core::ShardId> cells = Cells(current);
    for (uint32_t mask = 0; mask < (1u << cells.size()); ++mask) {
      const std::string context = std::string(TechniqueName(current)) +
                                  " cells mask " + std::to_string(mask);
      const std::string dir = FreshDir("crash_subset");
      Keep(dir, Technique::kL1, Cells(Technique::kL1));
      if (current == Technique::kL3) {
        Keep(dir, Technique::kL2, Cells(Technique::kL2));
      }
      std::vector<core::ShardId> kept;
      for (size_t i = 0; i < cells.size(); ++i) {
        if (mask & (1u << i)) kept.push_back(cells[i]);
      }
      Keep(dir, current, kept);

      SweepResult recovered;
      RecoverAndExpectIdentical(dir, context, &recovered);
      if (HasFatalFailure()) return;
      const DailyRunResult& run =
          current == Technique::kL2 ? *recovered.l2 : *recovered.l3;
      EXPECT_EQ(run.sweep.shards_loaded, static_cast<int64_t>(kept.size()))
          << context;
      EXPECT_EQ(run.sweep.shards_completed,
                static_cast<int64_t>(cells.size() - kept.size()))
          << context;
      EXPECT_EQ(recovered.l1->sweep.attempts, 0) << context;
    }
  }
}

TEST_F(CrashRecoveryTest, RandomSeededPlansAllRecover) {
  // A crash inside L1: a seeded random subset of its 2x3 grid written,
  // L2 and L3 not started. Each plan is reproducible from its seed.
  const std::vector<core::ShardId> cells = Cells(Technique::kL1);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    std::vector<core::ShardId> kept;
    for (const core::ShardId& cell : cells) {
      if (rng.Uniform(0.0, 1.0) < 0.5) kept.push_back(cell);
    }
    const std::string context = "seed " + std::to_string(seed) + ": " +
                                std::to_string(kept.size()) + " of " +
                                std::to_string(cells.size()) + " L1 cells";
    const std::string dir = FreshDir("crash_seed");
    Keep(dir, Technique::kL1, kept);

    SweepResult recovered;
    RecoverAndExpectIdentical(dir, context, &recovered);
    if (HasFatalFailure()) return;
    EXPECT_EQ(recovered.l1->sweep.shards_loaded,
              static_cast<int64_t>(kept.size()))
        << context;
  }
}

TEST_F(CrashRecoveryTest, TechniqueBoundaryKillsRecoverToIdenticalBytes) {
  // finished = techniques complete before the crash; the rest never
  // started (no subdirectory at all for them).
  for (size_t finished = 0; finished <= 3; ++finished) {
    const std::string context =
        "boundary after " + std::to_string(finished) + " techniques";
    const std::string dir = FreshDir("crash_boundary");
    for (size_t t = 0; t < finished; ++t) {
      Keep(dir, kTechniques[t], Cells(kTechniques[t]));
    }
    SweepResult recovered;
    RecoverAndExpectIdentical(dir, context, &recovered);
    if (HasFatalFailure()) return;
    const DailyRunResult* runs[] = {&*recovered.l1, &*recovered.l2,
                                    &*recovered.l3};
    for (size_t t = 0; t < 3; ++t) {
      const int64_t cells = static_cast<int64_t>(Cells(kTechniques[t]).size());
      EXPECT_EQ(runs[t]->sweep.shards_loaded, t < finished ? cells : 0)
          << context << ", technique " << t;
      EXPECT_EQ(runs[t]->sweep.attempts, t < finished ? 0 : cells)
          << context << ", technique " << t;
    }
  }
}

TEST_F(CrashRecoveryTest, TornPartialAndStrayTmpRecoverToIdenticalBytes) {
  // A torn write that reached a missing cell's final path (only a broken
  // disk or a non-atomic platform does that) and a stray .tmp from a
  // write that died before its rename.
  const std::string dir = FreshDir("crash_torn");
  Keep(dir, Technique::kL1, {{0, 0}, {1, 2}});
  {
    const std::string bytes =
        ReadFileToString(CellPath(*reference_dir_, Technique::kL1, {0, 1})
                             .string())
            .value();
    std::ofstream torn(CellPath(dir, Technique::kL1, {0, 1}),
                       std::ios::binary);
    torn.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  {
    std::ofstream stray(CellPath(dir, Technique::kL1, {1, 0}).string() +
                        ".tmp");
    stray << "half a snapshot";
  }
  SweepResult recovered;
  RecoverAndExpectIdentical(dir, "torn + stray tmp", &recovered);
  if (HasFatalFailure()) return;
  EXPECT_EQ(recovered.l1->sweep.shards_loaded, 2);
  EXPECT_EQ(recovered.l1->sweep.partials_discarded, 1);
  EXPECT_TRUE(core::ParsePartialModelBytes(
                  ReadFileToString(CellPath(dir, Technique::kL1, {0, 1})
                                       .string())
                      .value())
                  .ok());
}

TEST_F(CrashRecoveryTest, DoubleCrashStillConverges) {
  // First crash: one L1 cell written, another torn. The re-run then
  // dies too — an L1 cell whose partial cannot be written (a non-empty
  // directory squats on its path) stops the sweep before L2 starts —
  // having persisted every other L1 cell. Once the squatter is gone the
  // third run must still converge.
  const std::string dir = FreshDir("crash_double");
  Keep(dir, Technique::kL1, {{1, 1}});
  {
    std::ofstream torn(CellPath(dir, Technique::kL1, {0, 2}),
                       std::ios::binary);
    torn << "torn";
  }
  const fs::path squatter = CellPath(dir, Technique::kL1, {1, 2});
  fs::create_directories(squatter);
  { std::ofstream(squatter / "occupant") << "keeps the directory non-empty"; }

  ShardSupervisorConfig dying = Supervisor(dir);
  dying.retry.max_attempts = 1;
  auto second = RunSweep(*dataset_, Config(), dying);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(fs::is_directory(squatter));
  EXPECT_TRUE(fs::exists(CellPath(dir, Technique::kL1, {0, 2})));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "l2"));
  fs::remove_all(squatter);

  SweepResult recovered;
  RecoverAndExpectIdentical(dir, "double crash", &recovered);
  if (HasFatalFailure()) return;
  EXPECT_EQ(recovered.l1->sweep.shards_loaded,
            static_cast<int64_t>(Cells(Technique::kL1).size()) - 1);
  EXPECT_EQ(recovered.l1->sweep.partials_discarded, 0);
}

}  // namespace
}  // namespace logmine::eval
