#include "bench/e2e/reference.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>

#include "bench/e2e/tracer.h"

namespace logmine::e2e {
namespace {

constexpr size_t kTableWords = size_t{1} << 21;  // 16 MB
constexpr int kReads = 100'000;
constexpr size_t kSortWords = size_t{1} << 16;
constexpr int kThreads = 3;
constexpr int kRounds = 3;

std::atomic<uint64_t> sink{0};

/// One thread's share of a round; returns its wall time.
int64_t Work(const std::vector<uint64_t>& table, uint64_t x) {
  const int64_t start = WallNs();
  uint64_t sum = 0;
  for (int i = 0; i < kReads; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += table[x & (table.size() - 1)];
  }
  std::vector<uint64_t> keys(kSortWords);
  for (uint64_t& key : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    key = x;
  }
  std::sort(keys.begin(), keys.end());
  sink.fetch_add(sum + keys[kSortWords / 2], std::memory_order_relaxed);
  return WallNs() - start;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace

Reference::Reference() : table_(kTableWords) {
  for (size_t i = 0; i < table_.size(); ++i) {
    table_[i] = i * 0x9E3779B97F4A7C15ull;
  }
  Work(table_, 1);  // warm the table and the allocator
}

void Reference::Sample() {
  std::vector<double> rounds;
  for (int round = 0; round < kRounds; ++round) {
    std::array<int64_t, kThreads> ns{};
    std::array<std::thread, kThreads - 1> helpers;
    for (int t = 1; t < kThreads; ++t) {
      helpers[t - 1] = std::thread(
          [&, t] { ns[t] = Work(table_, 0x2545F4914F6CDD1Dull * (t + round + 1)); });
    }
    ns[0] = Work(table_, 0x9E3779B97F4A7C15ull * (round + 1));
    for (std::thread& helper : helpers) helper.join();
    double total = 0;
    for (int64_t t : ns) total += static_cast<double>(t);
    rounds.push_back(total / kThreads);
  }
  samples_.push_back(Median(std::move(rounds)));
}

double Reference::median_ns() const {
  return samples_.empty() ? kNominalNs : Median(samples_);
}

double Reference::factor() const { return kNominalNs / median_ns(); }

}  // namespace logmine::e2e
