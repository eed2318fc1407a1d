#include "serve/sliding_window.h"

#include <algorithm>
#include <map>
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
    : config_(std::move(config)), fingerprint_(Fingerprint(config_)) {}

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
  // One epoch = one L1 slot, and per-(slot, source) randomness keyed by
  // the absolute grid so each epoch's outcome is independent of the
  // window position it is later aggregated under.
  config.l1.slot_length = config.epoch_length;
  if (config.l1.salt_anchor == core::L1Config::kNoSaltAnchor) {
    config.l1.salt_anchor = 0;
  }
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
  // L2: the compact columns session rebuild needs, in the store's time
  // order (ties broken by insertion order, same as a batch mine sees).
  for (uint32_t idx : store.TimeOrder()) {
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

Result<WindowModelSet> SlidingWindowMiner::MineWindow(
    const RunOptions& options) const {
  if (epochs_.empty()) {
    return Status::FailedPrecondition("no epochs ingested yet");
  }
  const auto deadline = StopDeadline(options);
  WindowModelSet out;
  out.window_begin = window_begin();
  out.window_end = window_end();
  out.slots_total = config_.window_epochs;

  // --- L1: per-slot outcomes are additive; re-apply the support and
  // ratio thresholds over the whole window, exactly as the batch miner
  // does over its slot grid (missing epochs are slots where no pair has
  // support — they count toward slots_total and nothing else).
  std::map<core::NamePair, core::L1PairResult> l1_acc;
  for (const EpochState& epoch : epochs_) {
    for (const EpochPair& pair : epoch.l1_pairs) {
      core::L1PairResult& acc = l1_acc[core::NamePair(
          sources_.name(pair.a), sources_.name(pair.b))];
      ++acc.slots_supported;
      if (pair.positive) ++acc.slots_positive;
    }
  }
  for (auto& [names, pr] : l1_acc) {
    pr.slots_total = out.slots_total;
    core::DecideL1Pair(config_.l1, &pr);
    if (pr.dependent) out.l1.Insert(names);
    out.l1_pairs.push_back({names, pr.slots_supported, pr.slots_positive,
                            pr.positive_ratio, pr.dependent});
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
      if ((splitter.logs_with_context() & 1023) == 0) {
        LOGMINE_RETURN_IF_ERROR(
            CheckStop(options.cancel, deadline, "window session rebuild"));
      }
      splitter.Add(log.user, core::SessionLogEntry{log.ts, log.source, 0});
    }
  }
  const std::vector<core::Session> sessions =
      std::move(splitter).Finish(logs_considered, &out.session_stats);
  core::L2CooccurrenceMiner l2_miner(config_.l2);
  LOGMINE_ASSIGN_OR_RETURN(
      const core::L2Result l2,
      l2_miner.MineSessions(sources_.size(), sessions,
                            RemainingOptions(options, deadline)));
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
  // the window totals.
  std::map<std::pair<std::string, std::string>, int64_t> l3_acc;
  for (const EpochState& epoch : epochs_) {
    out.logs_scanned += epoch.logs_scanned;
    out.logs_stopped += epoch.logs_stopped;
    for (const EpochCitation& citation : epoch.citations) {
      l3_acc[{sources_.name(citation.app),
              config_.vocabulary.entries[citation.entry].id}] +=
          citation.count;
    }
  }
  for (const auto& [key, count] : l3_acc) {
    WindowCitation citation;
    citation.app = key.first;
    citation.entry_id = key.second;
    citation.count = count;
    citation.dependent = count >= config_.l3.min_citations;
    if (citation.dependent) {
      out.l3.Insert(core::NamePair(citation.app, citation.entry_id));
    }
    out.citations.push_back(std::move(citation));
  }

  out.combined = out.l1.Union(out.l2);
  return out;
}

void SlidingWindowMiner::EncodeState(SnapshotWriter* w) const {
  w->PutU64(fingerprint_);
  w->PutI64(epochs_ingested_);
  w->PutI64(epochs_aged_out_);
  for (const NameInterner* names : {&sources_, &users_}) {
    w->PutU64(names->size());
    for (const std::string& name : names->names()) w->PutString(name);
  }
  w->PutU64(epochs_.size());
  for (const EpochState& epoch : epochs_) {
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
}

Result<SlidingWindowMiner> SlidingWindowMiner::DecodeState(
    const SlidingWindowConfig& config, SectionCursor* c) {
  LOGMINE_ASSIGN_OR_RETURN(SlidingWindowMiner miner, Create(config));
  LOGMINE_ASSIGN_OR_RETURN(const uint64_t fingerprint, c->ReadU64());
  if (fingerprint != miner.fingerprint_) {
    return Status::FailedPrecondition(
        "persisted streaming state was produced under a different config "
        "(fingerprint mismatch)");
  }
  LOGMINE_ASSIGN_OR_RETURN(miner.epochs_ingested_, c->ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(miner.epochs_aged_out_, c->ReadI64());
  // Entry sizes as EncodeState writes them: a name is at least its
  // length prefix, a bool is a u32.
  for (NameInterner* names : {&miner.sources_, &miner.users_}) {
    LOGMINE_ASSIGN_OR_RETURN(const uint64_t count, c->ReadCount(8));
    for (uint64_t i = 0; i < count; ++i) {
      LOGMINE_ASSIGN_OR_RETURN(const std::string_view name, c->ReadBytes());
      if (names->Intern(name) != i) {
        return Status::ParseError("repeated name in persisted state: " +
                                  std::string(name));
      }
    }
  }
  const size_t num_sources = miner.sources_.size();
  LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_epochs, c->ReadCount(7 * 8));
  for (uint64_t e = 0; e < num_epochs; ++e) {
    EpochState epoch;
    LOGMINE_ASSIGN_OR_RETURN(epoch.begin, c->ReadI64());
    LOGMINE_ASSIGN_OR_RETURN(epoch.logs_considered, c->ReadI64());
    LOGMINE_ASSIGN_OR_RETURN(epoch.logs_scanned, c->ReadI64());
    LOGMINE_ASSIGN_OR_RETURN(epoch.logs_stopped, c->ReadI64());
    LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_pairs, c->ReadCount(3 * 4));
    epoch.l1_pairs.reserve(num_pairs);
    for (uint64_t i = 0; i < num_pairs; ++i) {
      EpochPair pair;
      LOGMINE_ASSIGN_OR_RETURN(pair.a, c->ReadU32());
      LOGMINE_ASSIGN_OR_RETURN(pair.b, c->ReadU32());
      LOGMINE_ASSIGN_OR_RETURN(pair.positive, c->ReadBool());
      if (pair.a >= num_sources || pair.b >= num_sources) {
        return Status::ParseError("epoch pair source id out of range");
      }
      epoch.l1_pairs.push_back(pair);
    }
    LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_context,
                             c->ReadCount(8 + 4 + 4));
    epoch.context.reserve(num_context);
    for (uint64_t i = 0; i < num_context; ++i) {
      ContextLog log;
      LOGMINE_ASSIGN_OR_RETURN(log.ts, c->ReadI64());
      LOGMINE_ASSIGN_OR_RETURN(log.source, c->ReadU32());
      LOGMINE_ASSIGN_OR_RETURN(log.user, c->ReadU32());
      if (log.source >= num_sources || log.user >= miner.users_.size()) {
        return Status::ParseError("context log id out of range");
      }
      epoch.context.push_back(log);
    }
    LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_citations,
                             c->ReadCount(4 + 8 + 8));
    epoch.citations.reserve(num_citations);
    for (uint64_t i = 0; i < num_citations; ++i) {
      EpochCitation citation;
      LOGMINE_ASSIGN_OR_RETURN(citation.app, c->ReadU32());
      LOGMINE_ASSIGN_OR_RETURN(citation.entry, c->ReadU64());
      LOGMINE_ASSIGN_OR_RETURN(citation.count, c->ReadI64());
      if (citation.app >= num_sources ||
          citation.entry >= config.vocabulary.entries.size()) {
        return Status::ParseError("citation id out of range");
      }
      epoch.citations.push_back(citation);
    }
    miner.epochs_.push_back(std::move(epoch));
  }
  return miner;
}

}  // namespace logmine::serve
