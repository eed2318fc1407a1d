#include "obs/introspect.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace logmine::obs {
namespace {

std::string SocketPath(const std::string& tag) {
  return "/tmp/logmine_" + tag + "_" + std::to_string(::getpid()) + ".sock";
}

IntrospectionHandlers TestHandlers() {
  IntrospectionHandlers handlers;
  handlers.statusz = [] { return std::string("status page"); };
  handlers.metrics = [] { return std::string("metric_total 1\n"); };
  handlers.health = [] { return std::string("healthy generation=3"); };
  handlers.journal_tail = [](size_t n) {
    std::vector<std::string> lines;
    for (size_t i = 0; i < std::min<size_t>(n, 5); ++i) {
      lines.push_back("{\"i\":" + std::to_string(i) + "}");
    }
    return lines;
  };
  return handlers;
}

TEST(IntrospectionServerTest, AnswersEveryCommand) {
  const std::string path = SocketPath("cmds");
  auto server = IntrospectionServer::Start(path, TestHandlers());
  ASSERT_TRUE(server.ok()) << server.status().message();

  Result<std::string> statusz = IntrospectionQuery(path, "STATUSZ");
  ASSERT_TRUE(statusz.ok()) << statusz.status().message();
  EXPECT_EQ(statusz.value(), "status page\n");

  Result<std::string> metrics = IntrospectionQuery(path, "METRICS");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value(), "metric_total 1\n");

  Result<std::string> health = IntrospectionQuery(path, "HEALTH");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value(), "healthy generation=3\n");

  Result<std::string> tail = IntrospectionQuery(path, "JOURNAL TAIL 2");
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value(), "{\"i\":0}\n{\"i\":1}\n");

  Result<std::string> unknown = IntrospectionQuery(path, "NONSENSE");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown.value(), "ERR unknown command\n");

  EXPECT_EQ(server.value()->requests_served(), 5u);
  server.value()->Stop();
  // The socket file is gone after Stop, and a second Stop is harmless.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
  server.value()->Stop();
}

// JOURNAL TAIL takes no count or a decimal count (clamped to
// [1, 4096]); any other spelling is an error, not a guessed count.
TEST(IntrospectionServerTest, JournalTailParsesItsCountStrictly) {
  const std::string path = SocketPath("tail");
  IntrospectionHandlers handlers;
  handlers.journal_tail = [](size_t n) {
    return std::vector<std::string>{"n=" + std::to_string(n)};
  };
  auto server = IntrospectionServer::Start(path, std::move(handlers));
  ASSERT_TRUE(server.ok()) << server.status().message();
  const std::pair<const char*, const char*> cases[] = {
      {"JOURNAL TAIL", "n=32\n"},
      {"JOURNAL TAIL 7", "n=7\n"},
      {"JOURNAL TAIL 0", "n=1\n"},
      {"JOURNAL TAIL 4097", "n=4096\n"},
      {"JOURNAL TAIL 99999999999999999999999", "n=4096\n"},
      {"JOURNAL TAIL -5", "ERR unknown command\n"},
      {"JOURNAL TAIL abc", "ERR unknown command\n"},
      {"JOURNAL TAIL12", "ERR unknown command\n"},
      {"JOURNAL TAILS", "ERR unknown command\n"},
      {"JOURNAL TAIL ", "ERR unknown command\n"},
      {"JOURNAL TAIL 5x", "ERR unknown command\n"},
  };
  for (const auto& [request, expected] : cases) {
    Result<std::string> response = IntrospectionQuery(path, request);
    ASSERT_TRUE(response.ok()) << request;
    EXPECT_EQ(response.value(), expected) << request;
  }
  server.value()->Stop();
}

TEST(IntrospectionServerTest, RejectsOverlongSocketPath) {
  const std::string path = "/tmp/" + std::string(200, 'x') + ".sock";
  auto server = IntrospectionServer::Start(path, TestHandlers());
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
}

TEST(IntrospectionServerTest, ReplacesStaleSocketFile) {
  const std::string path = SocketPath("stale");
  {
    auto first = IntrospectionServer::Start(path, TestHandlers());
    ASSERT_TRUE(first.ok());
    // Simulate a crashed predecessor: drop the server without unlinking
    // by re-binding over the live file from a second Start.
    auto second = IntrospectionServer::Start(path, TestHandlers());
    ASSERT_TRUE(second.ok());
    Result<std::string> health = IntrospectionQuery(path, "HEALTH");
    ASSERT_TRUE(health.ok());
    EXPECT_EQ(health.value(), "healthy generation=3\n");
  }
}

TEST(IntrospectionServerTest, ConcurrentScrapersAllGetAnswers) {
  const std::string path = SocketPath("scrape");
  auto server = IntrospectionServer::Start(path, TestHandlers());
  ASSERT_TRUE(server.ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20;
  std::vector<std::thread> threads;
  std::vector<int> ok_counts(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Result<std::string> answer =
            IntrospectionQuery(path, i % 2 == 0 ? "HEALTH" : "METRICS");
        if (answer.ok() && !answer.value().empty()) ++ok_counts[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ok_counts[t], kPerThread) << "thread " << t;
  }
  EXPECT_EQ(server.value()->requests_served(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(IntrospectionServerTest, ObsHandlersServeTheContext) {
  ObsContext context;
  context.metrics().Add(Metric::kPipelineRuns, 2);
  context.journal().Emit("test-1", "hello");
  {
    TraceSpan span(&context, "unit/stage");
  }

  const std::string path = SocketPath("obs");
  auto server = IntrospectionServer::Start(path, MakeObsHandlers(&context));
  ASSERT_TRUE(server.ok());

  Result<std::string> statusz = IntrospectionQuery(path, "STATUSZ");
  ASSERT_TRUE(statusz.ok());
  EXPECT_NE(statusz.value().find(context.journal().run_id()),
            std::string::npos);
  EXPECT_NE(statusz.value().find("pipeline.runs"), std::string::npos);
  // The recent stages are the journal tail's stage records, verbatim:
  // the span just closed is there, the durationless event is not.
  const size_t stages = statusz.value().find("== recent stages ==\n");
  ASSERT_NE(stages, std::string::npos) << statusz.value();
  const size_t span_at = statusz.value().find(
      "\"span\":\"unit/stage\",\"event\":\"span\",\"dur_ns\":");
  ASSERT_NE(span_at, std::string::npos) << statusz.value();
  EXPECT_GT(span_at, stages);
  EXPECT_EQ(context.journal().Tail(1).front() + "\n",
            statusz.value().substr(statusz.value().rfind('{')));
  EXPECT_EQ(statusz.value().find("\"event\":\"hello\""), std::string::npos);

  Result<std::string> metrics = IntrospectionQuery(path, "METRICS");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().find("logmine_pipeline_runs_total 2"),
            std::string::npos);

  // No service-specific health handler installed: the default reports ok.
  Result<std::string> health = IntrospectionQuery(path, "HEALTH");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value(), "ok\n");

  Result<std::string> tail = IntrospectionQuery(path, "JOURNAL TAIL 8");
  ASSERT_TRUE(tail.ok());
  EXPECT_NE(tail.value().find("\"event\":\"hello\""), std::string::npos);
}

// STATUSZ's recent stages name every stage of the journal tail, oldest
// first, each line as the journal wrote it.
TEST(IntrospectionServerTest, StatuszNamesEveryRecentStage) {
  ObsContext context;
  { TraceSpan span(&context, "pipeline/l1"); }
  context.journal().Emit("test-1", "between");
  { TraceSpan span(&context, "pipeline/l2"); }
  { TraceSpan span(&context, "pipeline/l3"); }

  const std::string path = SocketPath("stages");
  auto server = IntrospectionServer::Start(path, MakeObsHandlers(&context));
  ASSERT_TRUE(server.ok());
  Result<std::string> statusz = IntrospectionQuery(path, "STATUSZ");
  ASSERT_TRUE(statusz.ok());
  const std::string& page = statusz.value();

  const size_t stages = page.find("== recent stages ==\n");
  ASSERT_NE(stages, std::string::npos) << page;
  std::string expected;
  for (const std::string& line : context.journal().Tail(4)) {
    if (line.find("\"event\":\"between\"") != std::string::npos) continue;
    expected += line + "\n";
  }
  EXPECT_EQ(page.substr(stages + 20), expected);
  size_t at = stages;
  for (const char* stage : {"pipeline/l1", "pipeline/l2", "pipeline/l3"}) {
    const size_t next = page.find(
        "\"span\":\"" + std::string(stage) + "\",\"event\":\"span\",",
        at);
    ASSERT_NE(next, std::string::npos) << stage << "\n" << page;
    at = next;
  }
}

TEST(IntrospectionQueryTest, ConnectToAbsentSocketFails) {
  Result<std::string> answer =
      IntrospectionQuery(SocketPath("absent"), "HEALTH");
  EXPECT_FALSE(answer.ok());
}

}  // namespace
}  // namespace logmine::obs
