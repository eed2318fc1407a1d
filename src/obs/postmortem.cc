#include "obs/postmortem.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <atomic>

#include "obs/obs.h"
#include "util/snapshot.h"

namespace logmine::obs {
namespace {

std::atomic<uint64_t> g_bundle_seq{0};

}  // namespace

Result<std::string> WritePostmortemBundle(const PostmortemOptions& options,
                                          const PostmortemBundle& bundle) {
  if (options.dir.empty()) {
    return Status::NotFound("postmortem bundling disabled (no dir)");
  }
  ::mkdir(options.dir.c_str(), 0777);  // best-effort; write reports failure

  SnapshotWriter writer;
  writer.BeginSection("meta");
  writer.PutU32(PostmortemBundle::kVersion);
  writer.PutString(bundle.run_id);
  writer.PutString(bundle.reason);
  writer.PutString(bundle.trigger_span);
  writer.PutU64(bundle.config_fingerprint);
  writer.PutI64(bundle.captured_at_ns);
  writer.EndSection();
  writer.BeginSection("metrics");
  writer.PutString(bundle.metrics_json);
  writer.EndSection();
  writer.BeginSection("journal");
  writer.PutU64(bundle.journal_tail.size());
  for (const std::string& line : bundle.journal_tail) {
    writer.PutString(line);
  }
  writer.EndSection();

  const uint64_t seq =
      g_bundle_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::string path = options.dir + "/postmortem-" + bundle.run_id +
                           "-" + std::to_string(seq) + ".lmpm";
  LOGMINE_RETURN_IF_ERROR(
      WriteSnapshotFile(path, std::move(writer).Finish()));
  return path;
}

Result<PostmortemBundle> ReadPostmortemBundle(const std::string& path) {
  LOGMINE_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  LOGMINE_ASSIGN_OR_RETURN(SnapshotReader reader,
                           SnapshotReader::Parse(bytes));
  PostmortemBundle bundle;
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor meta, reader.Section("meta"));
  LOGMINE_ASSIGN_OR_RETURN(const uint32_t version, meta.ReadU32());
  if (version != PostmortemBundle::kVersion) {
    return Status::FailedPrecondition(
        "postmortem bundle version " + std::to_string(version) +
        " != " + std::to_string(PostmortemBundle::kVersion));
  }
  LOGMINE_ASSIGN_OR_RETURN(bundle.run_id, meta.ReadString());
  LOGMINE_ASSIGN_OR_RETURN(bundle.reason, meta.ReadString());
  LOGMINE_ASSIGN_OR_RETURN(bundle.trigger_span, meta.ReadString());
  LOGMINE_ASSIGN_OR_RETURN(bundle.config_fingerprint, meta.ReadU64());
  LOGMINE_ASSIGN_OR_RETURN(bundle.captured_at_ns, meta.ReadI64());
  LOGMINE_RETURN_IF_ERROR(meta.ExpectEnd());
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor metrics, reader.Section("metrics"));
  LOGMINE_ASSIGN_OR_RETURN(bundle.metrics_json, metrics.ReadString());
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor journal, reader.Section("journal"));
  // Every line costs at least its 8-byte length prefix.
  LOGMINE_ASSIGN_OR_RETURN(const uint64_t lines, journal.ReadCount(8));
  bundle.journal_tail.reserve(lines);
  for (uint64_t i = 0; i < lines; ++i) {
    LOGMINE_ASSIGN_OR_RETURN(std::string line, journal.ReadString());
    bundle.journal_tail.push_back(std::move(line));
  }
  LOGMINE_RETURN_IF_ERROR(journal.ExpectEnd());
  return bundle;
}

Result<std::string> CapturePostmortem(const PostmortemOptions& options,
                                      ObsContext* context,
                                      std::string_view reason,
                                      std::string_view trigger_span,
                                      uint64_t config_fingerprint) {
  if (options.dir.empty()) {
    return Status::NotFound("postmortem bundling disabled (no dir)");
  }
  PostmortemBundle bundle;
  bundle.reason = std::string(reason);
  bundle.trigger_span = std::string(trigger_span);
  bundle.config_fingerprint = config_fingerprint;
  bundle.captured_at_ns = MonotonicNowNs();
  if (context != nullptr) {
    bundle.run_id = context->journal().run_id();
    bundle.metrics_json = context->metrics().Snapshot().ToJson();
    bundle.journal_tail = context->journal().Tail(options.journal_tail);
  } else {
    bundle.run_id = "no-context";
  }
  LOGMINE_ASSIGN_OR_RETURN(std::string path,
                           WritePostmortemBundle(options, bundle));
  if (context != nullptr) {
    context->journal().Emit(
        trigger_span, "postmortem",
        {JournalField::Str("reason", reason),
         JournalField::Str("bundle", path)});
    context->metrics().Add(Metric::kPostmortemBundlesWritten, 1);
  }
  return path;
}

}  // namespace logmine::obs
