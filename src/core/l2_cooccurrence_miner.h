#ifndef LOGMINE_CORE_L2_COOCCURRENCE_MINER_H_
#define LOGMINE_CORE_L2_COOCCURRENCE_MINER_H_

#include <vector>

#include "core/dependency.h"
#include "core/l2_session_builder.h"
#include "log/store.h"
#include "stats/contingency.h"
#include "util/result.h"

namespace logmine::core {

/// Which asymptotic-chi-square association test scores the contingency
/// tables; the paper adopts Dunning's log-likelihood (via Evert's UCS)
/// for its robustness on heavily skewed tables, with Pearson as the
/// classical alternative.
enum class AssociationTest {
  kDunning,
  kPearson,
};

/// Configuration of approach L2 (§3.2).
struct L2Config {
  SessionBuilderConfig session;
  /// Bigram timeout in milliseconds; <= 0 means infinity (no timeout).
  /// Paper default: 1 second.
  TimeMs timeout = 1000;
  AssociationTest test = AssociationTest::kDunning;
  /// Significance level of the association decision.
  double alpha = 0.001;
  /// Joint frequency (o11) below which a pair type is not even scored —
  /// guards the asymptotic test against one-off co-occurrences. The
  /// effective floor adapts to the evidence volume but not to the
  /// timeout: max(min_cooccurrence, min_cooccurrence_per_session *
  /// #sessions).
  int64_t min_cooccurrence = 5;
  double min_cooccurrence_per_session = 0.045;
  /// Parallelism cap for the sharded bigram count, which runs on the
  /// shared `Executor` pool. Counts are additive and shard boundaries
  /// fixed, so results are identical for any thread count.
  /// 1 = serial on the calling thread; 0 = use the whole pool.
  int num_threads = 0;
};

/// Score of one *ordered* bigram type (A, B).
struct L2PairScore {
  LogStore::SourceId a = 0;
  LogStore::SourceId b = 0;
  stats::Contingency2x2 table;
  double score = 0.0;    ///< G^2 or X^2
  double p_value = 1.0;
  bool dependent = false;
};

/// Full result of one L2 run.
struct L2Result {
  std::vector<L2PairScore> scored;  ///< all pair types meeting min_cooccurrence
  SessionBuildStats session_stats;
  int64_t num_bigrams = 0;

  /// Positive decisions as an *unordered* model: a pair is dependent when
  /// either direction tests significant (the paper does not consider
  /// direction in the L1/L2 reference model).
  DependencyModel Dependencies(const LogStore& store) const;
};

/// Approach L2: reconstruct user sessions, extract bigrams of immediately
/// succeeding logs (dropping same-source pairs and gaps beyond the
/// timeout), build a 2x2 contingency table per bigram type, and test for
/// association.
class L2CooccurrenceMiner {
 public:
  explicit L2CooccurrenceMiner(L2Config config) : config_(config) {}

  /// Mines [begin, end); pre-condition: store.index_built().
  Result<L2Result> Mine(const LogStore& store, TimeMs begin,
                        TimeMs end) const;

  /// Bigram extraction on pre-built sessions — exposed for tests and the
  /// timeout experiment, which re-mines the same sessions under several
  /// timeouts.
  Result<L2Result> MineSessions(const LogStore& store,
                                const std::vector<Session>& sessions) const;

  /// Store-free core: sessions already carry the source ids; all the
  /// store contributed was its source count (accumulator sizing and
  /// marginal vectors). The sliding-window miner (src/serve) feeds
  /// sessions rebuilt from its own compacted columns through this.
  Result<L2Result> MineSessions(size_t num_sources,
                                const std::vector<Session>& sessions) const;

 private:
  L2Config config_;
};

}  // namespace logmine::core

#endif  // LOGMINE_CORE_L2_COOCCURRENCE_MINER_H_
