#include "util/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/obs.h"
#include "util/rng.h"

namespace logmine {

bool IsRetryable(StatusCode code) { return code == StatusCode::kInternal; }

Status RetryWithBackoff(const RetryPolicy& policy, std::string_view op_name,
                        const std::function<Status()>& op, RetryStats* stats,
                        const SleepFn& sleep) {
  const int max_attempts = std::max(1, policy.max_attempts);
  Rng rng = Rng(policy.seed).Fork(op_name);
  RetryStats local;
  Status last = Status::OK();
  double backoff = static_cast<double>(policy.initial_backoff_ms);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    ++local.attempts;
    last = op();
    if (last.ok() || !IsRetryable(last.code())) break;
    if (attempt + 1 == max_attempts) break;
    const double capped =
        std::min(backoff, static_cast<double>(policy.max_backoff_ms));
    const double factor =
        policy.jitter > 0.0
            ? rng.Uniform(1.0 - policy.jitter, 1.0 + policy.jitter)
            : 1.0;
    const int64_t delay_ms =
        std::max<int64_t>(0, static_cast<int64_t>(capped * factor));
    local.total_backoff_ms += delay_ms;
    if (sleep) {
      sleep(delay_ms);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    backoff *= policy.backoff_multiplier;
  }
  obs::Count(obs::Metric::kRetryAttempts, local.attempts);
  obs::Count(obs::Metric::kRetryBackoffMsTotal, local.total_backoff_ms);
  if (stats != nullptr) *stats = local;
  return last;
}

}  // namespace logmine
