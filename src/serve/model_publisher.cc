#include "serve/model_publisher.h"

#include <utility>

#include "core/serialization.h"
#include "util/snapshot.h"

namespace logmine::serve {
namespace {

void EncodeWindowModelSet(const WindowModelSet& models, SnapshotWriter* w) {
  w->PutI64(models.window_begin);
  w->PutI64(models.window_end);
  w->PutI64(models.slots_total);
  w->PutU64(models.l1_pairs.size());
  for (const WindowPairStat& stat : models.l1_pairs) {
    w->PutString(stat.names.first);
    w->PutString(stat.names.second);
    w->PutI64(stat.slots_supported);
    w->PutI64(stat.slots_positive);
    w->PutDouble(stat.positive_ratio);
    w->PutBool(stat.dependent);
  }
  w->PutU64(models.l2_scores.size());
  for (const WindowL2Score& score : models.l2_scores) {
    w->PutString(score.a);
    w->PutString(score.b);
    w->PutI64(score.o11);
    w->PutDouble(score.score);
    w->PutDouble(score.p_value);
    w->PutBool(score.dependent);
  }
  core::EncodeSessionBuildStats(models.session_stats, w);
  w->PutI64(models.num_bigrams);
  w->PutU64(models.citations.size());
  for (const WindowCitation& citation : models.citations) {
    w->PutString(citation.app);
    w->PutString(citation.entry_id);
    w->PutI64(citation.count);
    w->PutBool(citation.dependent);
  }
  w->PutI64(models.logs_scanned);
  w->PutI64(models.logs_stopped);
  core::EncodeDependencyModel(models.l1, w);
  core::EncodeDependencyModel(models.l2, w);
  core::EncodeDependencyModel(models.l3, w);
  core::EncodeDependencyModel(models.combined, w);
}

Result<WindowModelSet> DecodeWindowModelSet(SectionCursor* c) {
  WindowModelSet models;
  LOGMINE_ASSIGN_OR_RETURN(models.window_begin, c->ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(models.window_end, c->ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(const int64_t slots_total, c->ReadI64());
  models.slots_total = static_cast<int>(slots_total);
  // Entry sizes as EncodeWindowModelSet writes them: a string is at
  // least its length prefix, a bool is a u32.
  LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_l1, c->ReadCount(5 * 8 + 4));
  models.l1_pairs.reserve(num_l1);
  for (uint64_t i = 0; i < num_l1; ++i) {
    WindowPairStat stat;
    LOGMINE_ASSIGN_OR_RETURN(stat.names.first, c->ReadString());
    LOGMINE_ASSIGN_OR_RETURN(stat.names.second, c->ReadString());
    LOGMINE_ASSIGN_OR_RETURN(const int64_t supported, c->ReadI64());
    stat.slots_supported = static_cast<int>(supported);
    LOGMINE_ASSIGN_OR_RETURN(const int64_t positive, c->ReadI64());
    stat.slots_positive = static_cast<int>(positive);
    LOGMINE_ASSIGN_OR_RETURN(stat.positive_ratio, c->ReadDouble());
    LOGMINE_ASSIGN_OR_RETURN(stat.dependent, c->ReadBool());
    models.l1_pairs.push_back(std::move(stat));
  }
  LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_l2, c->ReadCount(5 * 8 + 4));
  models.l2_scores.reserve(num_l2);
  for (uint64_t i = 0; i < num_l2; ++i) {
    WindowL2Score score;
    LOGMINE_ASSIGN_OR_RETURN(score.a, c->ReadString());
    LOGMINE_ASSIGN_OR_RETURN(score.b, c->ReadString());
    LOGMINE_ASSIGN_OR_RETURN(score.o11, c->ReadI64());
    LOGMINE_ASSIGN_OR_RETURN(score.score, c->ReadDouble());
    LOGMINE_ASSIGN_OR_RETURN(score.p_value, c->ReadDouble());
    LOGMINE_ASSIGN_OR_RETURN(score.dependent, c->ReadBool());
    models.l2_scores.push_back(std::move(score));
  }
  LOGMINE_ASSIGN_OR_RETURN(models.session_stats,
                           core::DecodeSessionBuildStats(c));
  LOGMINE_ASSIGN_OR_RETURN(models.num_bigrams, c->ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(const uint64_t num_citations,
                           c->ReadCount(3 * 8 + 4));
  models.citations.reserve(num_citations);
  for (uint64_t i = 0; i < num_citations; ++i) {
    WindowCitation citation;
    LOGMINE_ASSIGN_OR_RETURN(citation.app, c->ReadString());
    LOGMINE_ASSIGN_OR_RETURN(citation.entry_id, c->ReadString());
    LOGMINE_ASSIGN_OR_RETURN(citation.count, c->ReadI64());
    LOGMINE_ASSIGN_OR_RETURN(citation.dependent, c->ReadBool());
    models.citations.push_back(std::move(citation));
  }
  LOGMINE_ASSIGN_OR_RETURN(models.logs_scanned, c->ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(models.logs_stopped, c->ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(models.l1, core::DecodeDependencyModel(c));
  LOGMINE_ASSIGN_OR_RETURN(models.l2, core::DecodeDependencyModel(c));
  LOGMINE_ASSIGN_OR_RETURN(models.l3, core::DecodeDependencyModel(c));
  LOGMINE_ASSIGN_OR_RETURN(models.combined, core::DecodeDependencyModel(c));
  return models;
}

}  // namespace

std::string SerializeGeneration(const ModelGeneration& generation) {
  SnapshotWriter w;
  w.BeginSection("generation");
  w.PutI64(generation.number);
  w.PutI64(generation.window_begin);
  w.PutI64(generation.window_end);
  w.PutI64(generation.epochs_ingested);
  w.PutU64(generation.config_fingerprint);
  EncodeWindowModelSet(generation.models, &w);
  core::EncodeDependencyModel(generation.tracker_active, &w);
  w.EndSection();
  return std::move(w).Finish();
}

Result<ModelGeneration> ParseGeneration(
    const std::string& bytes,
    const std::map<std::string, std::string>& entry_owner) {
  LOGMINE_ASSIGN_OR_RETURN(const SnapshotReader reader,
                           SnapshotReader::Parse(bytes));
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor c, reader.Section("generation"));
  ModelGeneration generation;
  LOGMINE_ASSIGN_OR_RETURN(generation.number, c.ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(generation.window_begin, c.ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(generation.window_end, c.ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(generation.epochs_ingested, c.ReadI64());
  LOGMINE_ASSIGN_OR_RETURN(generation.config_fingerprint, c.ReadU64());
  LOGMINE_ASSIGN_OR_RETURN(generation.models, DecodeWindowModelSet(&c));
  LOGMINE_ASSIGN_OR_RETURN(generation.tracker_active,
                           core::DecodeDependencyModel(&c));
  LOGMINE_RETURN_IF_ERROR(c.ExpectEnd());
  generation.graph =
      BuildQueryGraph(generation.models, generation.tracker_active,
                      entry_owner);
  generation.self_crc = Crc32(bytes);
  return generation;
}

core::DependencyGraph BuildQueryGraph(
    const WindowModelSet& models, const core::DependencyModel& tracker_active,
    const std::map<std::string, std::string>& entry_owner) {
  core::DependencyGraph graph;
  // App-app dependencies are undirected (the paper's L1/L2 reference
  // model has no direction), so both query directions get an edge.
  for (const core::NamePair& pair : tracker_active.pairs()) {
    graph.AddDependency(pair.first, pair.second);
    graph.AddDependency(pair.second, pair.first);
  }
  // L3 is directed once entries resolve to their providers.
  for (const core::NamePair& pair : models.l3.pairs()) {
    auto it = entry_owner.find(pair.second);
    if (it == entry_owner.end()) continue;
    if (it->second == pair.first) continue;  // self-edge
    graph.AddDependency(pair.first, it->second);
  }
  return graph;
}

void ModelPublisher::Publish(
    std::shared_ptr<const ModelGeneration> generation) {
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(generation);
  ++published_;
}

std::shared_ptr<const ModelGeneration> ModelPublisher::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

int64_t ModelPublisher::generations_published() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_;
}

}  // namespace logmine::serve
