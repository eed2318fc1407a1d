#ifndef LOGMINE_UTIL_RETRY_H_
#define LOGMINE_UTIL_RETRY_H_

#include <cstdint>
#include <functional>
#include <string_view>

#include "util/status.h"

namespace logmine {

/// Exponential-backoff retry parameters for transient failures
/// (checkpoint I/O being the first consumer). Delays are
///   min(max_backoff_ms, initial_backoff_ms * backoff_multiplier^k)
/// scaled by a jitter factor drawn uniformly from
/// [1 - jitter, 1 + jitter) — the jitter comes from a seeded `Rng`
/// forked on the operation name, so a run's retry timing is exactly
/// reproducible and independent streams never perturb each other.
struct RetryPolicy {
  int max_attempts = 3;            ///< total tries, including the first
  int64_t initial_backoff_ms = 5;  ///< delay before the second attempt
  double backoff_multiplier = 2.0;
  int64_t max_backoff_ms = 500;
  double jitter = 0.5;  ///< in [0, 1); 0 = deterministic delays
  uint64_t seed = 0x5EED5EEDULL;
};

/// What one RetryWithBackoff call did, for reporting and tests.
struct RetryStats {
  int attempts = 0;
  int64_t total_backoff_ms = 0;
};

/// Whether a failure is worth retrying. Only Internal qualifies: it is
/// the code the I/O layer uses for OS-level failures (open/write/rename),
/// the transient class. Everything else — bad arguments, parse errors,
/// precondition violations, cancellation — is deterministic and would
/// fail identically on every attempt.
bool IsRetryable(StatusCode code);

/// Sleep replacement hook; tests inject a recorder instead of waiting.
using SleepFn = std::function<void(int64_t ms)>;

/// Runs `op` up to `policy.max_attempts` times, sleeping between
/// attempts per the policy, until it returns OK or a status
/// `IsRetryable` refuses.
/// Returns the last status; fills `stats` (optional) with the
/// attempt count and the total backoff requested. `sleep` defaults to a
/// real std::this_thread::sleep_for.
Status RetryWithBackoff(const RetryPolicy& policy, std::string_view op_name,
                        const std::function<Status()>& op,
                        RetryStats* stats = nullptr,
                        const SleepFn& sleep = SleepFn());

}  // namespace logmine

#endif  // LOGMINE_UTIL_RETRY_H_
