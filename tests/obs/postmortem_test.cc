#include "obs/postmortem.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "util/snapshot.h"

namespace logmine::obs {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

TEST(PostmortemBundleTest, WriteReadRoundTrip) {
  const std::string dir = TempDir("logmine_pm_roundtrip");
  PostmortemOptions options;
  options.dir = dir + "/bundles";  // does not exist yet: created on write

  PostmortemBundle bundle;
  bundle.run_id = "run-test-1";
  bundle.reason = "sweep_degraded";
  bundle.trigger_span = "sweep-1/d0.r2";
  bundle.config_fingerprint = 0xDEADBEEFCAFEBABEull;
  bundle.captured_at_ns = 12345;
  bundle.metrics_json = "{\"metrics\":[]}";
  bundle.journal_tail = {"{\"event\":\"a\"}", "{\"event\":\"b\"}"};

  Result<std::string> path = WritePostmortemBundle(options, bundle);
  ASSERT_TRUE(path.ok()) << path.status().message();
  EXPECT_NE(path.value().find("postmortem-run-test-1-"), std::string::npos);

  Result<PostmortemBundle> read = ReadPostmortemBundle(path.value());
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(read.value().run_id, bundle.run_id);
  EXPECT_EQ(read.value().reason, bundle.reason);
  EXPECT_EQ(read.value().trigger_span, bundle.trigger_span);
  EXPECT_EQ(read.value().config_fingerprint, bundle.config_fingerprint);
  EXPECT_EQ(read.value().captured_at_ns, bundle.captured_at_ns);
  EXPECT_EQ(read.value().metrics_json, bundle.metrics_json);
  EXPECT_EQ(read.value().journal_tail, bundle.journal_tail);
}

TEST(PostmortemBundleTest, DisabledDirIsNotFound) {
  PostmortemBundle bundle;
  EXPECT_EQ(WritePostmortemBundle(PostmortemOptions{}, bundle).status().code(),
            StatusCode::kNotFound);
  ObsContext context;
  EXPECT_EQ(CapturePostmortem(PostmortemOptions{}, &context, "x", "y", 0)
                .status()
                .code(),
            StatusCode::kNotFound);
  // A disabled capture leaves no side effects behind.
  EXPECT_EQ(context.journal().events_emitted(), 0u);
}

TEST(PostmortemBundleTest, CorruptFileIsParseError) {
  const std::string dir = TempDir("logmine_pm_corrupt");
  PostmortemOptions options;
  options.dir = dir;
  PostmortemBundle bundle;
  bundle.run_id = "run-c";
  Result<std::string> path = WritePostmortemBundle(options, bundle);
  ASSERT_TRUE(path.ok());

  // Flip one byte in the middle: the container CRC must catch it.
  std::string bytes;
  {
    std::ifstream in(path.value(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x5A;
  {
    std::ofstream out(path.value(), std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_EQ(ReadPostmortemBundle(path.value()).status().code(),
            StatusCode::kParseError);
}

// A CRC-valid bundle whose journal section claims more lines than it has
// bytes must be refused before the count sizes an allocation.
TEST(PostmortemBundleTest, HugeJournalLineCountIsParseError) {
  const std::string dir = TempDir("logmine_pm_hostile");
  SnapshotWriter writer;
  writer.BeginSection("meta");
  writer.PutU32(PostmortemBundle::kVersion);
  writer.PutString("run-hostile");
  writer.PutString("reason");
  writer.PutString("span");
  writer.PutU64(0);
  writer.PutI64(0);
  writer.EndSection();
  writer.BeginSection("metrics");
  writer.PutString("{}");
  writer.EndSection();
  writer.BeginSection("journal");
  writer.PutU64(uint64_t{1} << 62);
  writer.PutString("{\"event\":\"only\"}");
  writer.EndSection();
  const std::string path = dir + "/hostile.lmpm";
  ASSERT_TRUE(WriteSnapshotFile(path, std::move(writer).Finish()).ok());

  const Result<PostmortemBundle> read = ReadPostmortemBundle(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kParseError);
}

// Version 2 bundles carried a separate "probe" section of per-stage
// resource usage; version 3 keeps stage records in the journal tail
// only. A version-2 file is refused with an error, with or without that
// section.
TEST(PostmortemBundleTest, VersionTwoBundleIsRefused) {
  const std::string dir = TempDir("logmine_pm_v2");
  for (const bool with_probe : {true, false}) {
    SnapshotWriter writer;
    writer.BeginSection("meta");
    writer.PutU32(2);
    writer.PutString("run-v2");
    writer.PutString("reason");
    writer.PutString("span");
    writer.PutU64(0);
    writer.PutI64(0);
    writer.EndSection();
    writer.BeginSection("metrics");
    writer.PutString("{}");
    writer.EndSection();
    if (with_probe) {
      writer.BeginSection("probe");
      writer.PutString("{\"stages\":[]}");
      writer.EndSection();
    }
    writer.BeginSection("journal");
    writer.PutU64(0);
    writer.EndSection();
    const std::string path =
        dir + (with_probe ? "/with_probe.lmpm" : "/without_probe.lmpm");
    ASSERT_TRUE(WriteSnapshotFile(path, std::move(writer).Finish()).ok());

    const Result<PostmortemBundle> read = ReadPostmortemBundle(path);
    ASSERT_FALSE(read.ok()) << path;
    EXPECT_EQ(read.status().code(), StatusCode::kFailedPrecondition) << path;
  }
}

TEST(CapturePostmortemTest, CapturesLiveContextAndJournalsTheBundle) {
  const std::string dir = TempDir("logmine_pm_capture");
  PostmortemOptions options;
  options.dir = dir;
  options.journal_tail = 4;

  ObsContext context;
  context.metrics().Add(Metric::kPipelineRuns, 3);
  for (int i = 0; i < 10; ++i) {
    context.journal().Emit("serve-1", "epoch_ingested",
                           {JournalField::Num("epoch", i)});
  }
  {
    TraceSpan span(&context, "unit/stage");
  }

  Result<std::string> path =
      CapturePostmortem(options, &context, "health_regression", "serve-1",
                        /*config_fingerprint=*/42);
  ASSERT_TRUE(path.ok()) << path.status().message();

  Result<PostmortemBundle> read = ReadPostmortemBundle(path.value());
  ASSERT_TRUE(read.ok()) << read.status().message();
  const PostmortemBundle& bundle = read.value();
  EXPECT_EQ(bundle.run_id, context.journal().run_id());
  EXPECT_EQ(bundle.reason, "health_regression");
  EXPECT_EQ(bundle.trigger_span, "serve-1");
  EXPECT_EQ(bundle.config_fingerprint, 42u);
  EXPECT_NE(bundle.metrics_json.find("pipeline.runs"), std::string::npos);
  // The tail is capped at the configured depth and holds the newest
  // lines: the last epochs, then the span, which closed last.
  ASSERT_EQ(bundle.journal_tail.size(), 4u);
  EXPECT_NE(bundle.journal_tail[2].find("\"epoch\":9"), std::string::npos);
  EXPECT_NE(bundle.journal_tail.back().find("\"span\":\"unit/stage\""),
            std::string::npos);
  // The span's stage record is the bundle's per-stage resource usage.
  EXPECT_NE(bundle.journal_tail.back().find("\"cpu_ns\":"), std::string::npos);
  EXPECT_NE(bundle.journal_tail.back().find("\"max_rss_kb\":"),
            std::string::npos);
  // The bundle's timeline view is the journal tail, converted.
  std::string jsonl;
  for (const std::string& line : bundle.journal_tail) jsonl += line + "\n";
  const std::string trace = JournalToChromeTrace(jsonl);
  EXPECT_NE(trace.find("\"name\":\"unit/stage span\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);

  // The capture itself journaled a "postmortem" event naming the bundle
  // and bumped the counter.
  const std::vector<std::string> tail = context.journal().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_NE(tail[0].find("\"event\":\"postmortem\""), std::string::npos);
  EXPECT_NE(tail[0].find("health_regression"), std::string::npos);
  const MetricsSnapshot snap = context.metrics().Snapshot();
  const MetricsSnapshot::Entry* written =
      snap.Find("postmortem.bundles_written");
  ASSERT_NE(written, nullptr);
  EXPECT_EQ(written->value, 1);
}

TEST(CapturePostmortemTest, SequenceNumbersKeepBundlesDistinct) {
  const std::string dir = TempDir("logmine_pm_seq");
  PostmortemOptions options;
  options.dir = dir;
  ObsContext context;
  Result<std::string> first =
      CapturePostmortem(options, &context, "a", "s", 1);
  Result<std::string> second =
      CapturePostmortem(options, &context, "b", "s", 1);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first.value(), second.value());
  EXPECT_TRUE(fs::exists(first.value()));
  EXPECT_TRUE(fs::exists(second.value()));
}

}  // namespace
}  // namespace logmine::obs
