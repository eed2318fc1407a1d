#include "util/retry.h"

#include <vector>

#include <gtest/gtest.h>

namespace logmine {
namespace {

SleepFn Recorder(std::vector<int64_t>* delays) {
  return [delays](int64_t ms) { delays->push_back(ms); };
}

TEST(RetryTest, FirstTrySuccessNeverSleeps) {
  std::vector<int64_t> delays;
  RetryStats stats;
  const Status status = RetryWithBackoff(
      RetryPolicy{}, "op", [] { return Status::OK(); }, &stats,
      Recorder(&delays));
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.total_backoff_ms, 0);
  EXPECT_TRUE(delays.empty());
}

TEST(RetryTest, TransientFailureRetriesUntilSuccess) {
  int calls = 0;
  std::vector<int64_t> delays;
  RetryStats stats;
  const Status status = RetryWithBackoff(
      RetryPolicy{}, "op",
      [&] {
        ++calls;
        return calls < 3 ? Status::Internal("transient") : Status::OK();
      },
      &stats, Recorder(&delays));
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(delays.size(), 2u);
}

TEST(RetryTest, NonRetryableCodeFailsImmediately) {
  for (Status failure :
       {Status::InvalidArgument("bad"), Status::FailedPrecondition("pre"),
        Status::ParseError("parse"), Status::NotFound("gone"),
        Status::Cancelled("stop")}) {
    int calls = 0;
    std::vector<int64_t> delays;
    const Status status = RetryWithBackoff(
        RetryPolicy{}, "op",
        [&] {
          ++calls;
          return failure;
        },
        nullptr, Recorder(&delays));
    EXPECT_EQ(status, failure);
    EXPECT_EQ(calls, 1) << failure.ToString();
    EXPECT_TRUE(delays.empty());
  }
}

TEST(RetryTest, ExhaustedAttemptsReturnLastStatus) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  int calls = 0;
  std::vector<int64_t> delays;
  RetryStats stats;
  const Status status = RetryWithBackoff(
      policy, "op",
      [&] {
        ++calls;
        return Status::Internal("always " + std::to_string(calls));
      },
      &stats, Recorder(&delays));
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "always 4");
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(stats.attempts, 4);
}

TEST(RetryTest, BackoffGrowsExponentiallyWithoutJitter) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 10;
  policy.backoff_multiplier = 3.0;
  policy.max_backoff_ms = 100;
  policy.jitter = 0.0;
  std::vector<int64_t> delays;
  (void)RetryWithBackoff(
      policy, "op", [] { return Status::Internal("x"); }, nullptr,
      Recorder(&delays));
  // 10, 30, 90, then capped at 100.
  ASSERT_EQ(delays.size(), 4u);
  EXPECT_EQ(delays[0], 10);
  EXPECT_EQ(delays[1], 30);
  EXPECT_EQ(delays[2], 90);
  EXPECT_EQ(delays[3], 100);
}

TEST(RetryTest, JitterIsDeterministicInSeedAndOpName) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.jitter = 0.5;
  auto run = [&policy](std::string_view name) {
    std::vector<int64_t> delays;
    (void)RetryWithBackoff(
        policy, name, [] { return Status::Internal("x"); }, nullptr,
        Recorder(&delays));
    return delays;
  };
  // Same seed + op name => identical delays; distinct op names draw
  // from independent streams.
  const std::vector<int64_t> original = run("alpha");
  EXPECT_EQ(original, run("alpha"));
  EXPECT_NE(original, run("beta"));

  policy.seed ^= 0x1234;
  EXPECT_NE(original, run("alpha")) << "seed change must move jitter";
}

TEST(RetryTest, JitterStaysWithinPolicyBounds) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff_ms = 100;
  policy.backoff_multiplier = 1.0;
  policy.max_backoff_ms = 100;
  policy.jitter = 0.25;
  std::vector<int64_t> delays;
  (void)RetryWithBackoff(
      policy, "bounds", [] { return Status::Internal("x"); }, nullptr,
      Recorder(&delays));
  ASSERT_EQ(delays.size(), 9u);
  for (int64_t ms : delays) {
    EXPECT_GE(ms, 75);
    EXPECT_LT(ms, 125);
  }
}

TEST(RetryTest, UnsetPredicateKeepsTheDefaultClassification) {
  // A policy carries no classification of its own: snapshot I/O and the
  // sweep supervisor alike retry kInternal and never kDeadlineExceeded.
  RetryPolicy policy;
  std::vector<int64_t> delays;
  int internal_calls = 0;
  (void)RetryWithBackoff(
      policy, "op",
      [&] {
        ++internal_calls;
        return Status::Internal("x");
      },
      nullptr, Recorder(&delays));
  EXPECT_EQ(internal_calls, policy.max_attempts);

  int deadline_calls = 0;
  const Status status = RetryWithBackoff(
      policy, "op",
      [&] {
        ++deadline_calls;
        return Status::DeadlineExceeded("x");
      },
      nullptr, Recorder(&delays));
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline_calls, 1);
}

TEST(RetryTest, ZeroAndNegativeMaxAttemptsStillRunOnce) {
  for (int max_attempts : {0, -3}) {
    RetryPolicy policy;
    policy.max_attempts = max_attempts;
    int calls = 0;
    std::vector<int64_t> delays;
    const Status status = RetryWithBackoff(
        policy, "op",
        [&] {
          ++calls;
          return Status::Internal("x");
        },
        nullptr, Recorder(&delays));
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(calls, 1);
  }
}

}  // namespace
}  // namespace logmine
