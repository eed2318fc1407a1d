#include "eval/dataset.h"

#include <cstring>

#include "log/columnar.h"
#include "util/mmap_file.h"
#include "util/snapshot.h"

namespace logmine::eval {
namespace {

// FNV-1a, the same mixing discipline as util/rng's seed derivation:
// cheap, stable across platforms, and good enough for a cache key that
// only needs to notice *any* config edit.
class Fingerprinter {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (i * 8)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  void Mix(int64_t v) { Mix(static_cast<uint64_t>(v)); }
  void Mix(int v) { Mix(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void Mix(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    Mix(bits);
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

// Version 2: the corpus is written from the indexed store, so it is in
// time order and its load skips the index's sort. A version-1 cache
// (emission order) is rebuilt once.
constexpr uint32_t kCacheVersion = 2;

// Cache sections ride in one snapshot container next to the columnar
// corpus sections: "dsmeta" (version + fingerprint) and "dssum" (the
// SimulationSummary, which is not derivable from the corpus alone).
std::string EncodeCache(uint64_t fingerprint,
                        const sim::SimulationSummary& summary,
                        const LogStore& store) {
  SnapshotWriter writer;
  writer.BeginSection("dsmeta");
  writer.PutU32(kCacheVersion);
  writer.PutU64(fingerprint);
  writer.EndSection();
  writer.BeginSection("dssum");
  writer.PutU64(summary.logs_per_day.size());
  for (int64_t logs : summary.logs_per_day) writer.PutI64(logs);
  writer.PutI64(summary.total_logs);
  writer.PutI64(summary.context_logs);
  writer.PutI64(summary.num_identified_sessions);
  writer.PutI64(summary.num_anonymous_executions);
  writer.PutI64(summary.num_batch_executions);
  writer.EndSection();
  AppendColumnarSections(store, &writer);
  return std::move(writer).Finish();
}

struct CachedCorpus {
  sim::SimulationSummary summary;
  LogStore store;
};

Result<CachedCorpus> DecodeCache(const std::string& path,
                                 uint64_t fingerprint) {
  // Decoded straight from a mapping of the file, as `ReadCorpusFile`
  // reads a columnar corpus; the store copies what it keeps.
  LOGMINE_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  LOGMINE_ASSIGN_OR_RETURN(SnapshotReader reader,
                           SnapshotReader::Parse(file.view()));
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor meta, reader.Section("dsmeta"));
  LOGMINE_ASSIGN_OR_RETURN(uint32_t version, meta.ReadU32());
  LOGMINE_ASSIGN_OR_RETURN(uint64_t cached_fingerprint, meta.ReadU64());
  if (Status s = meta.ExpectEnd(); !s.ok()) return s;
  if (version != kCacheVersion || cached_fingerprint != fingerprint) {
    return Status::FailedPrecondition("dataset cache is stale");
  }
  CachedCorpus cached;
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor sum, reader.Section("dssum"));
  // One 8-byte count per day.
  LOGMINE_ASSIGN_OR_RETURN(uint64_t num_days, sum.ReadCount(8));
  cached.summary.logs_per_day.reserve(static_cast<size_t>(num_days));
  for (uint64_t i = 0; i < num_days; ++i) {
    LOGMINE_ASSIGN_OR_RETURN(int64_t logs, sum.ReadI64());
    cached.summary.logs_per_day.push_back(logs);
  }
  LOGMINE_ASSIGN_OR_RETURN(cached.summary.total_logs, sum.ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(cached.summary.context_logs, sum.ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(cached.summary.num_identified_sessions,
                           sum.ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(cached.summary.num_anonymous_executions,
                           sum.ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(cached.summary.num_batch_executions,
                           sum.ReadI64());
  if (Status s = sum.ExpectEnd(); !s.ok()) return s;
  LOGMINE_ASSIGN_OR_RETURN(cached.store,
                           DecodeColumnarSections(reader, {}));
  cached.store.BuildIndex();
  return cached;
}

}  // namespace

uint64_t DatasetFingerprint(const DatasetConfig& config) {
  Fingerprinter fp;
  fp.Mix(config.scenario.seed);
  const sim::DefectCatalog& defects = config.scenario.defects;
  fp.Mix(defects.unlogged_edges);
  fp.Mix(defects.wrong_name_edges);
  fp.Mix(defects.erroneous_id_edges);
  fp.Mix(defects.server_side_loggers);
  fp.Mix(defects.uncovered_server_side_loggers);
  fp.Mix(defects.exception_edges);
  fp.Mix(defects.coincidence_pairs);
  fp.Mix(defects.rare_edges);
  const sim::SimulationConfig& s = config.simulation;
  fp.Mix(s.start);
  fp.Mix(s.num_days);
  fp.Mix(s.scale);
  fp.Mix(s.seed);
  fp.Mix(s.workload.num_users);
  fp.Mix(s.workload.num_workstations);
  fp.Mix(s.workload.sessions_per_weekday);
  fp.Mix(s.workload.mean_session_minutes);
  fp.Mix(s.workload.think_median_seconds);
  fp.Mix(s.workload.think_log_sigma);
  for (double v : s.profile.weekday) fp.Mix(v);
  for (double v : s.profile.weekend) fp.Mix(v);
  fp.Mix(s.anon_executions_per_weekday);
  fp.Mix(s.batch_executions_per_day);
  fp.Mix(s.coincidence_rate_per_day);
  fp.Mix(s.client_context_prob);
  fp.Mix(s.service_context_prob);
  fp.Mix(s.network_median_ms);
  fp.Mix(s.network_sigma);
  fp.Mix(s.processing_median_ms);
  fp.Mix(s.processing_sigma);
  fp.Mix(s.async_delay_median_ms);
  fp.Mix(s.async_sigma);
  fp.Mix(s.failure_timeout_ms);
  fp.Mix(static_cast<uint64_t>(s.failures.size()));
  for (const sim::FailureWindow& window : s.failures) {
    fp.Mix(window.app);
    fp.Mix(window.begin);
    fp.Mix(window.end);
  }
  return fp.hash();
}

core::ServiceVocabulary VocabularyFrom(
    const sim::ServiceDirectory& directory) {
  core::ServiceVocabulary vocabulary;
  vocabulary.entries.reserve(directory.size());
  for (const sim::ServiceEntry& entry : directory.entries()) {
    vocabulary.entries.push_back({entry.id, entry.root_url});
  }
  return vocabulary;
}

Result<Dataset> BuildDataset(const DatasetConfig& config) {
  Dataset dataset;
  auto scenario = sim::BuildHugScenario(config.scenario);
  if (!scenario.ok()) return scenario.status();
  dataset.scenario = std::move(scenario).value();
  dataset.simulation = config.simulation;
  if (dataset.simulation.start == 0) {
    dataset.simulation.start = sim::DefaultSimulationStart();
  }

  // The simulator run is the expensive step; the corpus cache replaces
  // it with a columnar read when an up-to-date cache exists. Any cache
  // defect — missing, stale fingerprint, corruption — falls through to
  // a fresh simulation; the cache is an accelerator, never a source of
  // truth.
  const uint64_t fingerprint =
      config.corpus_cache_path.empty() ? 0 : DatasetFingerprint(config);
  bool simulated = false;
  if (!config.corpus_cache_path.empty()) {
    auto cached = DecodeCache(config.corpus_cache_path, fingerprint);
    if (cached.ok()) {
      dataset.summary = std::move(cached.value().summary);
      dataset.store = std::move(cached.value().store);
    } else {
      simulated = true;
    }
  } else {
    simulated = true;
  }
  if (simulated) {
    sim::Simulator simulator(dataset.scenario.topology,
                             dataset.scenario.directory, dataset.simulation);
    LOGMINE_RETURN_IF_ERROR(simulator.Run(&dataset.store, &dataset.summary));
    if (!config.corpus_cache_path.empty()) {
      // Best-effort: a read-only cache directory degrades to "no cache",
      // not a failed build.
      (void)WriteFileAtomic(
          config.corpus_cache_path,
          EncodeCache(fingerprint, dataset.summary, dataset.store));
    }
  }

  dataset.vocabulary = VocabularyFrom(dataset.scenario.directory);
  dataset.reference_pairs =
      core::DependencyModel(dataset.scenario.interaction_pairs);
  dataset.reference_services =
      core::DependencyModel(dataset.scenario.app_service_deps);

  for (const sim::Application& app : dataset.scenario.topology.apps) {
    for (int entry : app.provided_entries) {
      dataset.entry_owner
          [dataset.scenario.directory.entry(static_cast<size_t>(entry)).id] =
          app.name;
    }
  }

  const auto num_apps =
      static_cast<int64_t>(dataset.scenario.topology.apps.size());
  dataset.universe_pairs = num_apps * (num_apps - 1) / 2;
  dataset.universe_services =
      num_apps * static_cast<int64_t>(dataset.scenario.directory.size());
  return dataset;
}

}  // namespace logmine::eval
