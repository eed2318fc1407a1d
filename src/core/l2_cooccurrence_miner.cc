#include "core/l2_cooccurrence_miner.h"

#include <algorithm>
#include <vector>

#include "obs/obs.h"
#include "stats/association_tests.h"
#include "util/executor.h"
#include "util/flat_counter.h"

namespace logmine::core {
namespace {

// Sessions per counting shard: large enough that shard bookkeeping is
// noise, small enough to load-balance a skewed session-length mix.
constexpr size_t kSessionsPerShard = 256;

uint64_t PairKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

Result<L2Result> L2CooccurrenceMiner::Mine(const LogStore& store,
                                           TimeMs begin, TimeMs end) const {
  if (!store.index_built()) {
    return Status::FailedPrecondition("LogStore index not built");
  }
  SessionBuilder builder(config_.session);
  SessionBuildStats stats;
  const std::vector<Session> sessions =
      builder.Build(store, begin, end, &stats);
  auto result = MineSessions(store.num_sources(), sessions);
  if (!result.ok()) return result.status();
  L2Result out = std::move(result).value();
  out.session_stats = stats;
  return out;
}

Result<L2Result> L2CooccurrenceMiner::MineSessions(
    const LogStore& store, const std::vector<Session>& sessions) const {
  return MineSessions(store.num_sources(), sessions);
}

Result<L2Result> L2CooccurrenceMiner::MineSessions(
    size_t num_sources, const std::vector<Session>& sessions) const {
  if (config_.alpha <= 0.0 || config_.alpha >= 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1)");
  }
  LOGMINE_SPAN_GLOBAL("l2/mine", obs::Metric::kL2MineNs);
  obs::Count(obs::Metric::kL2Runs);
  L2Result result;

  // First pass: joint bigram frequencies, sharded over sessions on the
  // shared executor. Each shard owns an open-addressing accumulator;
  // shard boundaries depend only on the session count, and counts are
  // additive, so the merged table is identical for any thread count.
  // The number of distinct pair types is bounded by num_sources^2 —
  // size the accumulators so typical days never rehash.
  const size_t expected_pairs =
      std::min<size_t>(num_sources * num_sources, 1u << 12);
  const size_t num_shards =
      (sessions.size() + kSessionsPerShard - 1) / kSessionsPerShard;
  std::vector<FlatCounter> shards;
  shards.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards.emplace_back(expected_pairs);
  }
  Executor::Shared().ParallelFor(
      num_shards,
      [&](size_t shard_idx) {
        const size_t begin = shard_idx * kSessionsPerShard;
        const size_t end =
            std::min(begin + kSessionsPerShard, sessions.size());
        FlatCounter& joint = shards[shard_idx];
        for (size_t s = begin; s < end; ++s) {
          const Session& session = sessions[s];
          for (size_t i = 0; i + 1 < session.entries.size(); ++i) {
            const SessionLogEntry& lhs = session.entries[i];
            const SessionLogEntry& rhs = session.entries[i + 1];
            if (lhs.source == rhs.source) continue;
            if (config_.timeout > 0 && rhs.ts - lhs.ts > config_.timeout) {
              continue;
            }
            joint.Add(PairKey(lhs.source, rhs.source), 1);
          }
        }
      },
      config_.num_threads);
  FlatCounter joint(expected_pairs);
  for (const FlatCounter& shard : shards) {
    joint.MergeFrom(shard);  // shard order; addition commutes anyway
  }

  // Marginals and the grand total follow from the joint table.
  std::vector<int64_t> first_marginal(num_sources, 0);
  std::vector<int64_t> second_marginal(num_sources, 0);
  int64_t total = 0;
  const std::vector<std::pair<uint64_t, int64_t>> entries =
      joint.SortedEntries();  // ascending (a, b) — the std::map order
  for (const auto& [key, count] : entries) {
    first_marginal[key >> 32] += count;
    second_marginal[key & 0xffffffffu] += count;
    total += count;
  }
  result.num_bigrams = total;

  // Second pass: contingency table + test per observed pair type.
  const int64_t floor = std::max<int64_t>(
      config_.min_cooccurrence,
      static_cast<int64_t>(config_.min_cooccurrence_per_session *
                           static_cast<double>(sessions.size())));
  for (const auto& [key, o11] : entries) {
    if (o11 < floor) continue;
    const auto a = static_cast<uint32_t>(key >> 32);
    const auto b = static_cast<uint32_t>(key & 0xffffffffu);
    L2PairScore score;
    score.a = a;
    score.b = b;
    score.table.o11 = o11;
    score.table.o12 = first_marginal[a] - o11;
    score.table.o21 = second_marginal[b] - o11;
    score.table.o22 = total - first_marginal[a] - second_marginal[b] + o11;
    score.score = config_.test == AssociationTest::kDunning
                      ? stats::DunningLogLikelihood(score.table)
                      : stats::PearsonChiSquare(score.table);
    score.p_value = stats::ChiSquarePValue(score.score);
    score.dependent = stats::IsSignificantAttraction(score.table, score.score,
                                                     config_.alpha);
    result.scored.push_back(score);
  }
  obs::Count(obs::Metric::kL2BigramsCounted, result.num_bigrams);
  obs::Count(obs::Metric::kL2PairsScored,
             static_cast<int64_t>(result.scored.size()));
  return result;
}

DependencyModel L2Result::Dependencies(const LogStore& store) const {
  DependencyModel model;
  for (const L2PairScore& score : scored) {
    if (score.dependent) {
      model.Insert(MakeUnorderedPair(store.source_name(score.a),
                                     store.source_name(score.b)));
    }
  }
  return model;
}

}  // namespace logmine::core
