#include "serve/sliding_window.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "core/serialization.h"
#include "log/filter.h"

namespace logmine::serve {

Result<std::vector<EpochBatch>> SplitIntoEpochBatches(const LogStore& store,
                                                      TimeMs begin, TimeMs end,
                                                      TimeMs epoch_length) {
  if (!store.index_built()) {
    return Status::FailedPrecondition("LogStore index not built");
  }
  if (epoch_length <= 0 || end <= begin ||
      (end - begin) % epoch_length != 0) {
    return Status::InvalidArgument(
        "[begin, end) must be a positive whole number of epochs");
  }
  std::vector<EpochBatch> batches;
  batches.reserve(static_cast<size_t>((end - begin) / epoch_length));
  for (TimeMs epoch = begin; epoch < end; epoch += epoch_length) {
    batches.push_back(
        {epoch, epoch + epoch_length,
         SliceByTime(store, epoch, epoch + epoch_length)});
  }
  return batches;
}

SlidingWindowMiner::SlidingWindowMiner(SlidingWindowConfig config)
    : config_(std::move(config)), fingerprint_(Fingerprint(config_)) {
  const std::vector<core::ServiceVocabulary::Entry>& entries =
      config_.vocabulary.entries;
  std::vector<uint32_t> by_id(entries.size());
  std::iota(by_id.begin(), by_id.end(), 0u);
  std::stable_sort(by_id.begin(), by_id.end(), [&](uint32_t x, uint32_t y) {
    return entries[x].id < entries[y].id;
  });
  entry_rank_.resize(entries.size());
  for (const uint32_t entry : by_id) {
    if (ranked_entries_.empty() ||
        entries[ranked_entries_.back()].id != entries[entry].id) {
      ranked_entries_.push_back(entry);
    }
    entry_rank_[entry] = static_cast<uint32_t>(ranked_entries_.size() - 1);
  }
}

Result<SlidingWindowMiner> SlidingWindowMiner::Create(
    SlidingWindowConfig config) {
  if (config.epoch_length <= 0) {
    return Status::InvalidArgument("epoch_length must be positive");
  }
  if (config.window_epochs < 1) {
    return Status::InvalidArgument("window_epochs must be >= 1");
  }
  if (config.l1.adaptive_slots) {
    return Status::InvalidArgument(
        "sliding windows need the fixed slot grid (adaptive_slots=false)");
  }
  if (config.l1.th_s > 1.0) {
    return Status::InvalidArgument("l1.th_s must be a fraction in [0, 1]");
  }
  // One epoch = one L1 slot. L1 keys each slot's randomness by source
  // name and absolute slot, so an epoch's outcome does not depend on the
  // window position it is later aggregated under.
  config.l1.slot_length = config.epoch_length;
  return SlidingWindowMiner(std::move(config));
}

uint64_t SlidingWindowMiner::Fingerprint(const SlidingWindowConfig& config) {
  core::Fingerprinter fp;
  fp.MixI64(config.epoch_length);
  fp.MixI64(config.window_epochs);
  fp.MixU64(core::ConfigFingerprint(config.l1));
  fp.MixU64(core::ConfigFingerprint(config.l2));
  fp.MixU64(core::ConfigFingerprint(config.l3));
  fp.MixU64(config.vocabulary.entries.size());
  for (const core::ServiceVocabulary::Entry& entry :
       config.vocabulary.entries) {
    fp.MixString(entry.id);
    fp.MixString(entry.root_url);
  }
  return fp.digest();
}

TimeMs SlidingWindowMiner::window_end() const {
  return epochs_.empty() ? 0 : epochs_.back().begin + config_.epoch_length;
}

TimeMs SlidingWindowMiner::window_begin() const {
  return epochs_.empty()
             ? 0
             : window_end() - static_cast<TimeMs>(config_.window_epochs) *
                                  config_.epoch_length;
}

Status SlidingWindowMiner::IngestEpoch(const EpochBatch& batch) {
  if (batch.end - batch.begin != config_.epoch_length) {
    return Status::InvalidArgument("batch must span exactly one epoch");
  }
  const TimeMs anchored = batch.begin - config_.l1.salt_anchor;
  if (anchored % config_.epoch_length != 0) {
    return Status::InvalidArgument("batch not aligned to the epoch grid");
  }
  if (!epochs_.empty() &&
      batch.begin < epochs_.back().begin + config_.epoch_length) {
    return Status::InvalidArgument(
        "batch begins before the current window end (epochs must arrive "
        "in order)");
  }
  const LogStore& store = batch.records;
  if (!store.index_built()) {
    return Status::InvalidArgument("poison batch: records not indexed");
  }
  if (!store.empty() &&
      (store.min_ts() < batch.begin || store.max_ts() >= batch.end)) {
    return Status::InvalidArgument("poison batch: records outside its epoch");
  }

  // Mine the hour in isolation first; state is only touched once every
  // fallible step has succeeded, so a poison batch leaves the window
  // exactly as it was.
  core::L1ActivityMiner l1_miner(config_.l1);
  LOGMINE_ASSIGN_OR_RETURN(const core::L1Result l1,
                           l1_miner.Mine(store, batch.begin, batch.end));
  // An empty vocabulary means there is nothing to cite, not a poison
  // batch: skip L3 instead of quarantining every epoch.
  core::L3Result l3;
  if (!config_.vocabulary.entries.empty()) {
    core::L3TextMiner l3_miner(config_.vocabulary, config_.l3);
    LOGMINE_ASSIGN_OR_RETURN(l3,
                             l3_miner.Mine(store, batch.begin, batch.end));
  }

  EpochState epoch;
  epoch.begin = batch.begin;
  epoch.logs_considered = static_cast<int64_t>(store.size());
  epoch.logs_scanned = l3.logs_scanned;
  epoch.logs_stopped = l3.logs_stopped;
  // Epoch-store ids map to window ids on first use, in the order below,
  // which fixes the window's ids and so its persisted state.
  IdRemap source_ids(store.num_sources(), &sources_);
  IdRemap user_ids(store.num_users(), &users_);
  auto source = [&](LogStore::SourceId id) {
    return source_ids.Map(id, store.source_name(id));
  };
  // L1: one slot, so every listed pair has support 1; keep the
  // positivity bit under ids ordered by *name* — the key the window
  // aggregation groups by.
  epoch.l1_pairs.reserve(l1.pairs.size());
  for (const core::L1PairResult& pr : l1.pairs) {
    if (pr.slots_supported != 1) continue;
    LogStore::SourceId a = pr.a;
    LogStore::SourceId b = pr.b;
    if (store.source_name(b) < store.source_name(a)) std::swap(a, b);
    // A braced list evaluates in order: a's id is mapped before b's.
    epoch.l1_pairs.push_back({source(a), source(b), pr.slots_positive > 0});
  }
  // L2: the compact columns session rebuild needs, in the store's (time)
  // order (ties broken by insertion order, same as a batch mine sees).
  for (size_t idx = 0; idx < store.size(); ++idx) {
    const LogStore::UserId user = store.user_id(idx);
    if (user == LogStore::kNoUser) continue;
    epoch.context.push_back({store.client_ts(idx),
                             source(store.source_id(idx)),
                             user_ids.Map(user, store.user_name(user))});
  }
  // L3: additive citation counters.
  epoch.citations.reserve(l3.citations.size());
  for (const core::L3Citation& citation : l3.citations) {
    epoch.citations.push_back(
        {source(citation.app), citation.entry, citation.count});
  }

  epochs_.push_back(std::move(epoch));
  ++epochs_ingested_;
  const TimeMs keep_from = window_begin();
  while (!epochs_.empty() && epochs_.front().begin < keep_from) {
    epochs_.pop_front();
    ++epochs_aged_out_;
  }
  return Status::OK();
}

Result<WindowModelSet> SlidingWindowMiner::MineWindow() const {
  if (epochs_.empty()) {
    return Status::FailedPrecondition("no epochs ingested yet");
  }
  WindowModelSet out;
  out.window_begin = window_begin();
  out.window_end = window_end();
  out.slots_total = config_.window_epochs;

  // The flat accumulators below are indexed by the name rank of the
  // sources the window's L1 pairs and citations mention; walking ranks
  // in order emits the outputs in name order.
  constexpr uint32_t kUnranked = UINT32_MAX;
  std::vector<uint32_t> rank(sources_.size(), kUnranked);
  std::vector<uint32_t> ranked;  // rank -> source id
  auto mention = [&](uint32_t source) {
    if (rank[source] == kUnranked) {
      rank[source] = 0;  // seen; the sort below sets the rank
      ranked.push_back(source);
    }
  };
  for (const EpochState& epoch : epochs_) {
    for (const EpochPair& pair : epoch.l1_pairs) {
      mention(pair.a);
      mention(pair.b);
    }
    for (const EpochCitation& citation : epoch.citations) {
      mention(citation.app);
    }
  }
  std::sort(ranked.begin(), ranked.end(), [&](uint32_t x, uint32_t y) {
    return sources_.name(x) < sources_.name(y);
  });
  for (size_t r = 0; r < ranked.size(); ++r) {
    rank[ranked[r]] = static_cast<uint32_t>(r);
  }
  const size_t num_ranked = ranked.size();

  // --- L1: per-slot outcomes are additive; re-apply the support and
  // ratio thresholds over the whole window, exactly as the batch miner
  // does over its slot grid (missing epochs are slots where no pair has
  // support — they count toward slots_total and nothing else). Pairs
  // are stored with name(a) < name(b), so only cells above the
  // diagonal fill.
  struct PairCount {
    int supported = 0;
    int positive = 0;
  };
  std::vector<PairCount> l1_acc(num_ranked * num_ranked);
  for (const EpochState& epoch : epochs_) {
    for (const EpochPair& pair : epoch.l1_pairs) {
      PairCount& acc = l1_acc[rank[pair.a] * num_ranked + rank[pair.b]];
      ++acc.supported;
      if (pair.positive) ++acc.positive;
    }
  }
  for (size_t a = 0; a < num_ranked; ++a) {
    for (size_t b = a + 1; b < num_ranked; ++b) {
      const PairCount& acc = l1_acc[a * num_ranked + b];
      if (acc.supported == 0) continue;
      core::L1PairResult pr;
      pr.slots_supported = acc.supported;
      pr.slots_positive = acc.positive;
      pr.slots_total = out.slots_total;
      core::DecideL1Pair(config_.l1, &pr);
      core::NamePair names(sources_.name(ranked[a]),
                           sources_.name(ranked[b]));
      if (pr.dependent) out.l1.Insert(names);
      out.l1_pairs.push_back({std::move(names), pr.slots_supported,
                              pr.slots_positive, pr.positive_ratio,
                              pr.dependent});
    }
  }

  // --- L2: sessions straddle epoch boundaries, so rebuild them over
  // the concatenated context columns (epoch time ranges are disjoint
  // and stored in order, so the concatenation is the window's time
  // order) with the batch builder's session rule, then score with the
  // store-free miner core.
  core::SessionSplitter splitter(config_.l2.session);
  int64_t logs_considered = 0;
  for (const EpochState& epoch : epochs_) {
    logs_considered += epoch.logs_considered;
    for (const ContextLog& log : epoch.context) {
      splitter.Add(log.user, core::SessionLogEntry{log.ts, log.source});
    }
  }
  const std::vector<core::Session> sessions =
      std::move(splitter).Finish(logs_considered, &out.session_stats);
  core::L2CooccurrenceMiner l2_miner(config_.l2);
  LOGMINE_ASSIGN_OR_RETURN(
      const core::L2Result l2,
      l2_miner.MineSessions(sources_.size(), sessions));
  out.num_bigrams = l2.num_bigrams;
  out.l2_scores.reserve(l2.scored.size());
  for (const core::L2PairScore& score : l2.scored) {
    WindowL2Score named{sources_.name(score.a), sources_.name(score.b),
                        score.table.o11,        score.score,
                        score.p_value,          score.dependent};
    if (named.dependent) {
      out.l2.Insert(core::MakeUnorderedPair(named.a, named.b));
    }
    out.l2_scores.push_back(std::move(named));
  }
  std::sort(out.l2_scores.begin(), out.l2_scores.end(),
            [](const WindowL2Score& x, const WindowL2Score& y) {
              return std::tie(x.a, x.b) < std::tie(y.a, y.b);
            });

  // --- L3: citation counters are additive; re-apply min_citations over
  // the window totals. Every stored count is at least one, so a zero
  // cell was never cited.
  const size_t num_entries = ranked_entries_.size();
  std::vector<int64_t> l3_acc(num_ranked * num_entries);
  for (const EpochState& epoch : epochs_) {
    out.logs_scanned += epoch.logs_scanned;
    out.logs_stopped += epoch.logs_stopped;
    for (const EpochCitation& citation : epoch.citations) {
      const size_t cell =
          rank[citation.app] * num_entries + entry_rank_[citation.entry];
      l3_acc[cell] += citation.count;
    }
  }
  for (size_t app = 0; app < num_ranked; ++app) {
    for (size_t entry = 0; entry < num_entries; ++entry) {
      const int64_t count = l3_acc[app * num_entries + entry];
      if (count == 0) continue;
      WindowCitation citation;
      citation.app = sources_.name(ranked[app]);
      citation.entry_id = config_.vocabulary.entries[ranked_entries_[entry]].id;
      citation.count = count;
      citation.dependent = count >= config_.l3.min_citations;
      if (citation.dependent) {
        out.l3.Insert(core::NamePair(citation.app, citation.entry_id));
      }
      out.citations.push_back(std::move(citation));
    }
  }

  out.combined = out.l1.Union(out.l2);
  return out;
}

std::vector<TimeMs> SlidingWindowMiner::epoch_begins() const {
  std::vector<TimeMs> begins;
  begins.reserve(epochs_.size());
  for (const EpochState& epoch : epochs_) begins.push_back(epoch.begin);
  return begins;
}

void SlidingWindowMiner::EncodeHead(SnapshotWriter* w) const {
  w->PutU64(fingerprint_);
  w->PutI64(epochs_ingested_);
  w->PutI64(epochs_aged_out_);
  for (const NameInterner* names : {&sources_, &users_}) {
    w->PutU64(names->size());
    for (const std::string& name : names->names()) w->PutString(name);
  }
  w->PutU64(epochs_.size());
  for (const EpochState& epoch : epochs_) w->PutI64(epoch.begin);
}

void SlidingWindowMiner::EncodeEpoch(size_t index, SnapshotWriter* w) const {
  const EpochState& epoch = epochs_[index];
  w->PutI64(epoch.begin);
  w->PutI64(epoch.logs_considered);
  w->PutI64(epoch.logs_scanned);
  w->PutI64(epoch.logs_stopped);
  w->PutU64(epoch.l1_pairs.size());
  for (const EpochPair& pair : epoch.l1_pairs) {
    w->PutU32(pair.a);
    w->PutU32(pair.b);
    w->PutBool(pair.positive);
  }
  w->PutU64(epoch.context.size());
  for (const ContextLog& log : epoch.context) {
    w->PutI64(log.ts);
    w->PutU32(log.source);
    w->PutU32(log.user);
  }
  w->PutU64(epoch.citations.size());
  for (const EpochCitation& citation : epoch.citations) {
    w->PutU32(citation.app);
    w->PutU64(citation.entry);
    w->PutI64(citation.count);
  }
}

Result<SlidingWindowMiner> SlidingWindowMiner::DecodeState(
    const SlidingWindowConfig& config, SectionCursor* head,
    const std::function<Result<SectionCursor>(TimeMs begin)>& epoch_payload) {
  LOGMINE_ASSIGN_OR_RETURN(SlidingWindowMiner miner, Create(config));
  LOGMINE_ASSIGN_OR_RETURN(const uint64_t fingerprint, head->ReadU64());
  if (fingerprint != miner.fingerprint_) {
    return Status::FailedPrecondition(
        "persisted streaming state was produced under a different config "
        "(fingerprint mismatch)");
  }
  LOGMINE_ASSIGN_OR_RETURN(miner.epochs_ingested_, head->ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(miner.epochs_aged_out_, head->ReadI64());
  // Entry sizes as the encoders write them: a name is at least its
  // length prefix, a bool is a u32.
  for (NameInterner* names : {&miner.sources_, &miner.users_}) {
    LOGMINE_ASSIGN_OR_RETURN(const uint64_t count, head->ReadCount(8));
    for (uint64_t i = 0; i < count; ++i) {
      LOGMINE_ASSIGN_OR_RETURN(const std::string_view name, head->ReadBytes());
      if (names->Intern(name) != i) {
        return Status::ParseError("repeated name in persisted state: " +
                                  std::string(name));
      }
    }
  }
  const SlidingWindowConfig& normalized = miner.config_;
  const TimeMs length = normalized.epoch_length;
  LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_epochs, head->ReadCount(8));
  if (num_epochs > static_cast<uint64_t>(normalized.window_epochs)) {
    return Status::ParseError("persisted state retains more epochs than "
                              "the window holds");
  }
  // Every ingested epoch is either retained or aged out.
  if (miner.epochs_ingested_ < 0 || miner.epochs_aged_out_ < 0 ||
      miner.epochs_ingested_ - miner.epochs_aged_out_ !=
          static_cast<int64_t>(num_epochs)) {
    return Status::ParseError("persisted epoch counters do not add up");
  }
  std::vector<TimeMs> begins(num_epochs);
  for (size_t i = 0; i < begins.size(); ++i) {
    LOGMINE_ASSIGN_OR_RETURN(begins[i], head->ReadI64());
    // Remainders first: a hostile begin cannot overflow the subtraction.
    if ((begins[i] % length - normalized.l1.salt_anchor % length) % length !=
        0) {
      return Status::ParseError("persisted epoch begin off the epoch grid");
    }
    if (i > 0 && begins[i] <= begins[i - 1]) {
      return Status::ParseError("persisted epoch begins out of order");
    }
  }
  // Strictly increasing on the grid, so the newest minus the oldest is
  // a whole number of epochs; one window spans window_epochs of them.
  if (num_epochs > 1 &&
      static_cast<uint64_t>(begins.back()) -
              static_cast<uint64_t>(begins.front()) >=
          static_cast<uint64_t>(normalized.window_epochs) *
              static_cast<uint64_t>(length)) {
    return Status::ParseError("persisted epochs span more than one window");
  }

  const size_t num_sources = miner.sources_.size();
  // MineWindow sums every counter over up to window_epochs epochs in
  // int64, so one epoch may carry at most that share of the range.
  const int64_t epoch_count_max = INT64_MAX / normalized.window_epochs;
  for (const TimeMs begin : begins) {
    LOGMINE_ASSIGN_OR_RETURN(SectionCursor c, epoch_payload(begin));
    EpochState epoch;
    LOGMINE_ASSIGN_OR_RETURN(epoch.begin, c.ReadI64());
    if (epoch.begin != begin) {
      return Status::ParseError("epoch payload holds epoch " +
                                std::to_string(epoch.begin) + ", expected " +
                                std::to_string(begin));
    }
    LOGMINE_ASSIGN_OR_RETURN(epoch.logs_considered, c.ReadI64());
    LOGMINE_ASSIGN_OR_RETURN(epoch.logs_scanned, c.ReadI64());
    LOGMINE_ASSIGN_OR_RETURN(epoch.logs_stopped, c.ReadI64());
    for (const int64_t count :
         {epoch.logs_considered, epoch.logs_scanned, epoch.logs_stopped}) {
      if (count < 0 || count > epoch_count_max) {
        return Status::ParseError(
            "epoch log count outside [0, INT64_MAX / window_epochs]");
      }
    }
    LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_pairs, c.ReadCount(3 * 4));
    epoch.l1_pairs.reserve(num_pairs);
    for (uint64_t i = 0; i < num_pairs; ++i) {
      EpochPair pair;
      LOGMINE_ASSIGN_OR_RETURN(pair.a, c.ReadU32());
      LOGMINE_ASSIGN_OR_RETURN(pair.b, c.ReadU32());
      LOGMINE_ASSIGN_OR_RETURN(pair.positive, c.ReadBool());
      if (pair.a >= num_sources || pair.b >= num_sources) {
        return Status::ParseError("epoch pair source id out of range");
      }
      // Also rejects a == b: the window aggregation relies on the order.
      if (!(miner.sources_.name(pair.a) < miner.sources_.name(pair.b))) {
        return Status::ParseError("epoch pair not ordered by name");
      }
      epoch.l1_pairs.push_back(pair);
    }
    LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_context,
                             c.ReadCount(8 + 4 + 4));
    epoch.context.reserve(num_context);
    for (uint64_t i = 0; i < num_context; ++i) {
      ContextLog log;
      LOGMINE_ASSIGN_OR_RETURN(log.ts, c.ReadI64());
      LOGMINE_ASSIGN_OR_RETURN(log.source, c.ReadU32());
      LOGMINE_ASSIGN_OR_RETURN(log.user, c.ReadU32());
      if (log.source >= num_sources || log.user >= miner.users_.size()) {
        return Status::ParseError("context log id out of range");
      }
      epoch.context.push_back(log);
    }
    LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_citations,
                             c.ReadCount(4 + 8 + 8));
    epoch.citations.reserve(num_citations);
    // Citations of one epoch can share a window cell (an app citing
    // entries with one id), so the bound holds for their sum.
    int64_t citations_total = 0;
    for (uint64_t i = 0; i < num_citations; ++i) {
      EpochCitation citation;
      LOGMINE_ASSIGN_OR_RETURN(citation.app, c.ReadU32());
      LOGMINE_ASSIGN_OR_RETURN(citation.entry, c.ReadU64());
      LOGMINE_ASSIGN_OR_RETURN(citation.count, c.ReadI64());
      if (citation.app >= num_sources ||
          citation.entry >= config.vocabulary.entries.size()) {
        return Status::ParseError("citation id out of range");
      }
      if (citation.count < 1) {
        return Status::ParseError("citation count below one");
      }
      if (citation.count > epoch_count_max - citations_total) {
        return Status::ParseError(
            "epoch citation counts sum past INT64_MAX / window_epochs");
      }
      citations_total += citation.count;
      epoch.citations.push_back(citation);
    }
    LOGMINE_RETURN_IF_ERROR(c.ExpectEnd());
    miner.epochs_.push_back(std::move(epoch));
  }
  return miner;
}

}  // namespace logmine::serve
