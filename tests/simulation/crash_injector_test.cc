#include "simulation/crash_injector.h"

#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace logmine::sim {
namespace {

TEST(ShardFaultInjectorTest, NamesRoundTrip) {
  for (ShardFault fault :
       {ShardFault::kNone, ShardFault::kFailTransient, ShardFault::kHang,
        ShardFault::kCorruptModel, ShardFault::kSlow}) {
    auto parsed = ShardFaultFromName(ShardFaultName(fault));
    ASSERT_TRUE(parsed.ok()) << ShardFaultName(fault);
    EXPECT_EQ(parsed.value(), fault);
  }
  EXPECT_EQ(ShardFaultFromName("explode").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardFaultInjectorTest, FaultsSpendTheirTimesThenClear) {
  ShardFaultPlan plan;
  plan.faults.push_back({/*day=*/1, /*range_index=*/0,
                         ShardFault::kFailTransient, /*times=*/2});
  plan.faults.push_back({/*day=*/0, /*range_index=*/1, ShardFault::kHang,
                         kShardFaultAlways});
  const ShardFaultInjector injector(std::move(plan));

  // Transient: fires on attempts 1 and 2, clean from 3 on.
  EXPECT_EQ(injector.OnAttempt(1, 0, 1), ShardFault::kFailTransient);
  EXPECT_EQ(injector.OnAttempt(1, 0, 2), ShardFault::kFailTransient);
  EXPECT_EQ(injector.OnAttempt(1, 0, 3), ShardFault::kNone);
  // Stateless: asking again for attempt 1 still reports the fault.
  EXPECT_EQ(injector.OnAttempt(1, 0, 1), ShardFault::kFailTransient);
  // Permanent: every attempt, forever.
  EXPECT_EQ(injector.OnAttempt(0, 1, 1), ShardFault::kHang);
  EXPECT_EQ(injector.OnAttempt(0, 1, 1000), ShardFault::kHang);
  // Unlisted shards behave normally.
  EXPECT_EQ(injector.OnAttempt(0, 0, 1), ShardFault::kNone);
  EXPECT_EQ(injector.SpecFor(0, 0), nullptr);
  ASSERT_NE(injector.SpecFor(1, 0), nullptr);
  EXPECT_EQ(injector.SpecFor(1, 0)->times, 2);
}

TEST(ShardFaultInjectorTest, PermanentlyPoisonedListsOnlyFatalPermanents) {
  ShardFaultPlan plan;
  plan.faults.push_back({2, 1, ShardFault::kHang, kShardFaultAlways});
  plan.faults.push_back({0, 3, ShardFault::kFailTransient, kShardFaultAlways});
  // Permanent slowness completes eventually — not poisoned.
  plan.faults.push_back({1, 0, ShardFault::kSlow, kShardFaultAlways});
  // Transient faults recover — not poisoned.
  plan.faults.push_back({1, 2, ShardFault::kCorruptModel, /*times=*/3});
  const ShardFaultInjector injector(std::move(plan));
  const auto poisoned = injector.PermanentlyPoisoned();
  ASSERT_EQ(poisoned.size(), 2u);
  EXPECT_EQ(poisoned[0], std::make_pair(0, 3));
  EXPECT_EQ(poisoned[1], std::make_pair(2, 1));
}

TEST(ShardFaultInjectorTest, RandomPlanPicksDistinctShardsInBounds) {
  Rng rng(17);
  ShardFaultPlanOptions options;
  options.max_faulty_shards = 4;
  options.max_times = 3;
  options.permanent_fraction = 0.5;
  for (int trial = 0; trial < 200; ++trial) {
    const ShardFaultPlan plan = RandomShardFaultPlan(&rng, 3, 2, options);
    ASSERT_GE(plan.faults.size(), 1u);
    ASSERT_LE(plan.faults.size(), 4u);
    std::set<std::pair<int, int>> cells;
    for (const ShardFaultSpec& spec : plan.faults) {
      ASSERT_GE(spec.day, 0);
      ASSERT_LT(spec.day, 3);
      ASSERT_GE(spec.range_index, 0);
      ASSERT_LT(spec.range_index, 2);
      ASSERT_NE(spec.fault, ShardFault::kNone);
      ASSERT_TRUE(spec.times == kShardFaultAlways ||
                  (spec.times >= 1 && spec.times <= 3));
      cells.emplace(spec.day, spec.range_index);
    }
    // At most one spec per shard cell.
    EXPECT_EQ(cells.size(), plan.faults.size());
  }
}

TEST(ShardFaultInjectorTest, RandomPlanIsDeterministicInSeed) {
  Rng a(5), b(5);
  ShardFaultPlanOptions options;
  options.permanent_fraction = 0.3;
  const ShardFaultPlan pa = RandomShardFaultPlan(&a, 4, 4, options);
  const ShardFaultPlan pb = RandomShardFaultPlan(&b, 4, 4, options);
  ASSERT_EQ(pa.faults.size(), pb.faults.size());
  for (size_t i = 0; i < pa.faults.size(); ++i) {
    EXPECT_EQ(pa.faults[i].day, pb.faults[i].day);
    EXPECT_EQ(pa.faults[i].range_index, pb.faults[i].range_index);
    EXPECT_EQ(pa.faults[i].fault, pb.faults[i].fault);
    EXPECT_EQ(pa.faults[i].times, pb.faults[i].times);
  }
}

}  // namespace
}  // namespace logmine::sim
