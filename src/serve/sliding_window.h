#ifndef LOGMINE_SERVE_SLIDING_WINDOW_H_
#define LOGMINE_SERVE_SLIDING_WINDOW_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "core/dependency.h"
#include "core/l1_activity_miner.h"
#include "core/l2_cooccurrence_miner.h"
#include "core/l3_text_miner.h"
#include "log/name_interner.h"
#include "log/store.h"
#include "util/result.h"
#include "util/snapshot.h"
#include "util/time_util.h"

namespace logmine::serve {

/// One hour (epoch) of logs, the ingest unit of the streaming service.
/// [begin, end) must span exactly one epoch on the configured grid,
/// `records` must have its index built, and every record's client_ts
/// must fall inside [begin, end). A batch violating any of these is the
/// "poison batch" the service quarantines. Move-only, like `LogStore`;
/// `SliceByTime(records, begin, end)` clones the records.
struct EpochBatch {
  TimeMs begin = 0;
  TimeMs end = 0;
  LogStore records;
};

/// Splits [begin, end) of `store` into consecutive epoch batches of
/// `epoch_length`; end - begin must be a whole number of epochs
/// (InvalidArgument otherwise). Each batch's records are the epoch's
/// `SliceByTime` of `store`. Batches with no records are still
/// returned — an empty hour advances the window. Record order inside a
/// batch follows the store's time order, so feeding the batches through
/// the sliding miner sees logs exactly as a batch mine over the same
/// interval would. Pre-condition: store.index_built().
Result<std::vector<EpochBatch>> SplitIntoEpochBatches(const LogStore& store,
                                                      TimeMs begin, TimeMs end,
                                                      TimeMs epoch_length);

/// Configuration of the sliding-window miner. `Create` forces
/// `l1.slot_length` to `epoch_length` (one epoch = one L1 slot). Epochs
/// sit on the grid anchored at `l1.salt_anchor`, whose absolute slot
/// numbers key L1's randomness (see L1Config), so per-epoch L1 outcomes
/// do not depend on the window's position.
struct SlidingWindowConfig {
  /// Epoch (= L1 slot) length; the paper's hourly grid.
  TimeMs epoch_length = kMillisPerHour;
  /// Epochs retained: the model always describes the last
  /// `window_epochs` epochs ending at the newest ingested one.
  int window_epochs = 24;
  core::L1Config l1;
  core::L2Config l2;
  core::L3Config l3;
  core::ServiceVocabulary vocabulary;
};

/// L1 outcome for one source pair over the current window, in the
/// name domain (intern ids are an implementation detail of the miner).
struct WindowPairStat {
  core::NamePair names;  ///< normalized: first <= second
  int slots_supported = 0;
  int slots_positive = 0;
  double positive_ratio = 0.0;
  bool dependent = false;
};

/// L2 score of one *ordered* bigram type over the current window.
struct WindowL2Score {
  std::string a;
  std::string b;
  int64_t o11 = 0;
  double score = 0.0;
  double p_value = 1.0;
  bool dependent = false;
};

/// L3 citation counter over the current window.
struct WindowCitation {
  std::string app;
  std::string entry_id;  ///< vocabulary entry id
  int64_t count = 0;
  bool dependent = false;
};

/// Everything one publish derives from the current window — per-pair
/// evidence plus the name-level dependency models. Equal to what a
/// batch mine over [window_begin, window_end) produces (the equivalence
/// property the serve tests pin down).
struct WindowModelSet {
  TimeMs window_begin = 0;
  TimeMs window_end = 0;
  int slots_total = 0;
  std::vector<WindowPairStat> l1_pairs;  ///< sorted by names
  std::vector<WindowL2Score> l2_scores;  ///< sorted by (a, b)
  core::SessionBuildStats session_stats;
  int64_t num_bigrams = 0;
  std::vector<WindowCitation> citations;  ///< sorted by (app, entry_id)
  int64_t logs_scanned = 0;
  int64_t logs_stopped = 0;
  core::DependencyModel l1;
  core::DependencyModel l2;
  core::DependencyModel l3;
  core::DependencyModel combined;  ///< l1 ∪ l2 (the app-app model)
};

/// Incremental miner behind the streaming service: ingests one epoch at
/// a time, retains compact per-epoch observables (L1 per-slot pair
/// outcomes, L2 context-log columns, L3 citation counters), ages out
/// epochs that slide past the window, and aggregates the retained
/// epochs into a full model set at publish time — no re-mining of old
/// hours, ever.
///
/// Why this decomposition: L1's per-slot outcomes and L3's citation
/// counts are additive over epochs, so they aggregate exactly. L2 is
/// not (sessions straddle epoch boundaries), so the miner keeps the
/// minimal columns session reconstruction needs — (ts, source, user) of
/// context-bearing logs — and rebuilds sessions over the whole window
/// at publish time, which is cheap relative to re-scanning raw logs.
///
/// The streaming state serializes through util/snapshot in two parts
/// — a small head and one payload per epoch, which never changes once
/// the epoch is ingested — and a decoded miner continues
/// byte-identically to one that never stopped: the property the
/// service's crash recovery rests on.
class SlidingWindowMiner {
 public:
  /// Validates and normalizes `config` (see SlidingWindowConfig).
  static Result<SlidingWindowMiner> Create(SlidingWindowConfig config);

  /// Fingerprint of every result-affecting config field (miner configs,
  /// grid, vocabulary). Persisted state with a different fingerprint is
  /// refused at recovery.
  static uint64_t Fingerprint(const SlidingWindowConfig& config);

  /// Ingests the next epoch: mines the batch's hour in isolation and
  /// appends the compacted observables, then ages out epochs older than
  /// the window. The batch must be aligned to the epoch grid, start at
  /// or after the current window end, and hold an indexed store whose
  /// records all lie inside its bounds — InvalidArgument otherwise (the
  /// poison-batch class), leaving the window untouched.
  Status IngestEpoch(const EpochBatch& batch);

  /// Aggregates the retained epochs into the window's model set.
  /// FailedPrecondition before the first ingest.
  Result<WindowModelSet> MineWindow() const;

  int64_t epochs_ingested() const { return epochs_ingested_; }
  int64_t epochs_aged_out() const { return epochs_aged_out_; }
  size_t epochs_retained() const { return epochs_.size(); }
  /// Window bounds: [end - window_epochs * epoch_length, end), end at
  /// the newest ingested epoch. Both 0 before the first ingest.
  TimeMs window_begin() const;
  TimeMs window_end() const;
  const SlidingWindowConfig& config() const { return config_; }
  uint64_t config_fingerprint() const { return fingerprint_; }

  /// Begins of the retained epochs, oldest first.
  std::vector<TimeMs> epoch_begins() const;

  /// Serializes the head of the streaming state into the currently open
  /// section of `w`: fingerprint first (so decode can refuse early),
  /// the epoch counters, the name tables and `epoch_begins()`.
  void EncodeHead(SnapshotWriter* w) const;
  /// Serializes the observables of retained epoch `index` (0 = oldest)
  /// into the currently open section of `w`.
  void EncodeEpoch(size_t index, SnapshotWriter* w) const;

  /// Restores a miner from `EncodeHead` bytes in `head` and, for each
  /// epoch begin the head lists, the `EncodeEpoch` bytes
  /// `epoch_payload(begin)` returns (each cursor only needs to stay
  /// valid until the next call). FailedPrecondition when the persisted
  /// fingerprint does not match `config`'s — resuming under a different
  /// config would silently mix incompatible models. ParseError on
  /// damage: an id out of range, a repeated name, a count larger than
  /// the bytes left could hold, epoch counters that do not add up,
  /// epoch begins off the grid, out of order or outside one window, an
  /// epoch payload for another begin, an L1 pair not ordered by name,
  /// or a citation count below one. An error from `epoch_payload` is
  /// returned as is.
  static Result<SlidingWindowMiner> DecodeState(
      const SlidingWindowConfig& config, SectionCursor* head,
      const std::function<Result<SectionCursor>(TimeMs begin)>&
          epoch_payload);

 private:
  /// L1 outcome of one pair in one epoch; a/b are source intern ids
  /// ordered so that name(a) < name(b).
  struct EpochPair {
    uint32_t a = 0;
    uint32_t b = 0;
    bool positive = false;
  };
  /// One context-bearing log, compacted to what session rebuild needs.
  struct ContextLog {
    TimeMs ts = 0;
    uint32_t source = 0;
    uint32_t user = 0;
  };
  /// One (app, vocabulary entry) citation counter of one epoch.
  struct EpochCitation {
    uint32_t app = 0;
    uint64_t entry = 0;
    int64_t count = 0;
  };
  /// The retained observables of one ingested epoch.
  struct EpochState {
    TimeMs begin = 0;
    std::vector<EpochPair> l1_pairs;
    int64_t logs_considered = 0;
    std::vector<ContextLog> context;
    std::vector<EpochCitation> citations;
    int64_t logs_scanned = 0;
    int64_t logs_stopped = 0;
  };

  explicit SlidingWindowMiner(SlidingWindowConfig config);

  SlidingWindowConfig config_;
  uint64_t fingerprint_ = 0;
  // Vocabulary entries ranked by id: entry index -> rank, and rank ->
  // the first entry with that id. Entries sharing an id share a rank,
  // so their citations merge in the window aggregation.
  std::vector<uint32_t> entry_rank_;
  std::vector<uint32_t> ranked_entries_;
  // Source / user names interned across the miner's whole life; epoch
  // states reference them by dense id. Never shrunk — name churn is
  // tiny next to the per-epoch columns.
  NameInterner sources_;
  NameInterner users_;
  std::deque<EpochState> epochs_;
  int64_t epochs_ingested_ = 0;
  int64_t epochs_aged_out_ = 0;
};

}  // namespace logmine::serve

#endif  // LOGMINE_SERVE_SLIDING_WINDOW_H_
