#include "core/l2_direction.h"

#include <gtest/gtest.h>

namespace logmine::core {
namespace {

// Builds one session from (ts, source-id) pairs.
Session MakeSession(const std::vector<std::pair<TimeMs, uint32_t>>& entries) {
  Session session;
  session.user = 0;
  for (const auto& [ts, source] : entries) {
    session.entries.push_back(SessionLogEntry{ts, source});
  }
  return session;
}

DirectionConfig FastConfig() {
  DirectionConfig config;
  config.pause = 1000;
  config.min_runs = 5;
  return config;
}

TEST(DirectionTest, CallerBeforeCalleeDetected) {
  // 12 runs, each "0 then 1" separated by long pauses.
  std::vector<Session> sessions;
  std::vector<std::pair<TimeMs, uint32_t>> entries;
  TimeMs t = 0;
  for (int run = 0; run < 12; ++run) {
    entries.push_back({t, 0});
    entries.push_back({t + 100, 1});
    t += 10000;  // pause > 1000 ends the run
  }
  sessions.push_back(MakeSession(entries));
  L2DirectionDetector detector(FastConfig());
  const auto estimates = detector.Estimate(sessions, {{0, 1}});
  ASSERT_EQ(estimates.size(), 1u);
  EXPECT_EQ(estimates[0].first_a, 12);
  EXPECT_EQ(estimates[0].first_b, 0);
  EXPECT_EQ(estimates[0].direction, CallDirection::kAToB);
  EXPECT_LT(estimates[0].p_value, 0.001);
}

TEST(DirectionTest, ReversedOrderGivesBToA) {
  std::vector<Session> sessions;
  std::vector<std::pair<TimeMs, uint32_t>> entries;
  TimeMs t = 0;
  for (int run = 0; run < 10; ++run) {
    entries.push_back({t, 7});      // the higher id leads
    entries.push_back({t + 50, 3});
    t += 60000;
  }
  sessions.push_back(MakeSession(entries));
  L2DirectionDetector detector(FastConfig());
  const auto estimates = detector.Estimate(sessions, {{3, 7}});
  ASSERT_EQ(estimates.size(), 1u);
  // a = 3, b = 7; 7 always first -> B-to-A.
  EXPECT_EQ(estimates[0].direction, CallDirection::kBToA);
}

TEST(DirectionTest, BalancedOrderStaysUndecided) {
  std::vector<Session> sessions;
  std::vector<std::pair<TimeMs, uint32_t>> entries;
  TimeMs t = 0;
  for (int run = 0; run < 10; ++run) {
    if (run % 2 == 0) {
      entries.push_back({t, 0});
      entries.push_back({t + 100, 1});
    } else {
      entries.push_back({t, 1});
      entries.push_back({t + 100, 0});
    }
    t += 10000;
  }
  sessions.push_back(MakeSession(entries));
  L2DirectionDetector detector(FastConfig());
  const auto estimates = detector.Estimate(sessions, {{0, 1}});
  ASSERT_EQ(estimates.size(), 1u);
  EXPECT_EQ(estimates[0].direction, CallDirection::kUndecided);
  EXPECT_GT(estimates[0].p_value, 0.5);
}

TEST(DirectionTest, TooFewRunsStaysUndecided) {
  std::vector<Session> sessions;
  sessions.push_back(MakeSession({{0, 0}, {100, 1}}));
  L2DirectionDetector detector(FastConfig());
  const auto estimates = detector.Estimate(sessions, {{0, 1}});
  ASSERT_EQ(estimates.size(), 1u);
  EXPECT_EQ(estimates[0].direction, CallDirection::kUndecided);
  EXPECT_EQ(estimates[0].first_a, 1);
}

TEST(DirectionTest, RunsRequireBothMembers) {
  // Runs containing only one of the pair contribute nothing.
  std::vector<Session> sessions;
  std::vector<std::pair<TimeMs, uint32_t>> entries;
  TimeMs t = 0;
  for (int run = 0; run < 20; ++run) {
    entries.push_back({t, 0});  // alone
    t += 10000;
  }
  sessions.push_back(MakeSession(entries));
  L2DirectionDetector detector(FastConfig());
  const auto estimates = detector.Estimate(sessions, {{0, 1}});
  ASSERT_EQ(estimates.size(), 1u);
  EXPECT_EQ(estimates[0].first_a + estimates[0].first_b, 0);
}

TEST(DirectionTest, PauseBoundaryRespected) {
  // Within one run the pair appears once; the "1 then 0" later comes in
  // a separate run because of the pause, yielding one vote each way.
  std::vector<Session> sessions;
  sessions.push_back(MakeSession({
      {0, 0}, {100, 1},       // run 1: 0 first
      {5000, 1}, {5100, 0},   // run 2: 1 first
  }));
  DirectionConfig config = FastConfig();
  config.min_runs = 1;
  L2DirectionDetector detector(config);
  const auto estimates = detector.Estimate(sessions, {{0, 1}});
  ASSERT_EQ(estimates.size(), 1u);
  EXPECT_EQ(estimates[0].first_a, 1);
  EXPECT_EQ(estimates[0].first_b, 1);
  EXPECT_EQ(estimates[0].direction, CallDirection::kUndecided);
}

TEST(DirectionTest, DuplicateAndSwappedQueriesDeduplicated) {
  std::vector<Session> sessions;
  sessions.push_back(MakeSession({{0, 0}, {100, 1}}));
  L2DirectionDetector detector(FastConfig());
  const auto estimates =
      detector.Estimate(sessions, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(estimates.size(), 1u);
}

}  // namespace
}  // namespace logmine::core
