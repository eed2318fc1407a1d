// The executor-based L2 and L3 miners against inline reimplementations of
// the seed's serial path: std::map bigram counting for L2, and ten
// backtracking wildcard scans plus a fresh lower-cased std::string per
// token for L3. The references are kept serial and allocation-heavy on
// purpose; they are what the hot paths were rewritten from, so the
// rewritten miners must reproduce their checksums exactly.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/l2_cooccurrence_miner.h"
#include "core/l2_session_builder.h"
#include "core/l3_text_miner.h"
#include "eval/dataset.h"
#include "log/filter.h"
#include "stats/association_tests.h"
#include "util/string_util.h"

namespace logmine::eval {
namespace {

// L2 as seeded: one global std::map keyed by the source pair. Returns
// the bigram total plus the number of dependent pairs.
int64_t ReferenceL2(const Dataset& dataset, TimeMs begin, TimeMs end) {
  const core::L2Config config;
  core::SessionBuilder builder(config.session);
  core::SessionBuildStats stats;
  const std::vector<core::Session> sessions =
      builder.Build(dataset.store, begin, end, &stats);
  std::map<std::pair<uint32_t, uint32_t>, int64_t> joint;
  for (const core::Session& session : sessions) {
    for (size_t i = 0; i + 1 < session.entries.size(); ++i) {
      const core::SessionLogEntry& lhs = session.entries[i];
      const core::SessionLogEntry& rhs = session.entries[i + 1];
      if (lhs.source == rhs.source) continue;
      if (config.timeout > 0 && rhs.ts - lhs.ts > config.timeout) continue;
      ++joint[{lhs.source, rhs.source}];
    }
  }
  std::map<uint32_t, int64_t> first_marginal, second_marginal;
  int64_t total = 0;
  for (const auto& [pair, count] : joint) {
    first_marginal[pair.first] += count;
    second_marginal[pair.second] += count;
    total += count;
  }
  const int64_t floor = std::max<int64_t>(
      config.min_cooccurrence,
      static_cast<int64_t>(config.min_cooccurrence_per_session *
                           static_cast<double>(sessions.size())));
  int64_t dependent = 0;
  for (const auto& [pair, o11] : joint) {
    if (o11 < floor) continue;
    stats::Contingency2x2 table;
    table.o11 = o11;
    table.o12 = first_marginal[pair.first] - o11;
    table.o21 = second_marginal[pair.second] - o11;
    table.o22 = total - first_marginal[pair.first] -
                second_marginal[pair.second] + o11;
    const double score = stats::DunningLogLikelihood(table);
    if (stats::IsSignificantAttraction(table, score, config.alpha)) {
      ++dependent;
    }
  }
  return total + dependent;
}

// L3 as seeded: every message runs the generic backtracking matcher
// against all ten stop patterns, and every token is lower-cased into a
// fresh std::string before the vocabulary lookup. Returns the stopped
// logs plus the citation total.
int64_t ReferenceL3(const Dataset& dataset, TimeMs begin, TimeMs end) {
  const std::vector<std::string> stop_patterns = core::DefaultStopPatterns();
  std::map<std::string, size_t> token_index;
  for (size_t i = 0; i < dataset.vocabulary.entries.size(); ++i) {
    token_index[ToLower(dataset.vocabulary.entries[i].id)] = i;
  }
  std::map<std::pair<uint32_t, size_t>, int64_t> citations;
  int64_t stopped = 0;
  for (size_t idx : IndicesInRange(dataset.store, begin, end)) {
    const std::string_view message = dataset.store.message(idx);
    bool is_stopped = false;
    for (const std::string& pattern : stop_patterns) {
      if (WildcardMatch(pattern, message)) {
        is_stopped = true;
        break;
      }
    }
    if (is_stopped) {
      ++stopped;
      continue;
    }
    std::vector<size_t> cited;
    for (std::string_view token : TokenizeIdentifiers(message)) {
      auto it = token_index.find(ToLower(token));
      if (it != token_index.end()) cited.push_back(it->second);
    }
    std::sort(cited.begin(), cited.end());
    cited.erase(std::unique(cited.begin(), cited.end()), cited.end());
    for (size_t entry : cited) {
      ++citations[{dataset.store.source_id(idx), entry}];
    }
  }
  int64_t total = stopped;
  for (const auto& [key, count] : citations) total += count;
  return total;
}

TEST(SeedReferenceTest, ExecutorL2AndL3MatchTheSeedSerialPath) {
  DatasetConfig config;
  config.simulation.num_days = 1;
  config.simulation.scale = 0.05;
  auto built = BuildDataset(config);
  ASSERT_TRUE(built.ok()) << built.status();
  const Dataset& dataset = built.value();
  const TimeMs begin = dataset.day_begin(0);
  const TimeMs end = dataset.day_end(0);

  core::L2Config l2_config;
  l2_config.num_threads = 4;
  auto l2 = core::L2CooccurrenceMiner(l2_config).Mine(dataset.store, begin,
                                                      end);
  ASSERT_TRUE(l2.ok()) << l2.status();
  int64_t l2_checksum = l2.value().num_bigrams;
  for (const auto& scored : l2.value().scored) {
    if (scored.dependent) ++l2_checksum;
  }

  core::L3Config l3_config;
  l3_config.num_threads = 4;
  auto l3 = core::L3TextMiner(dataset.vocabulary, l3_config)
                .Mine(dataset.store, begin, end);
  ASSERT_TRUE(l3.ok()) << l3.status();
  int64_t l3_checksum = l3.value().logs_stopped;
  for (const auto& citation : l3.value().citations) {
    l3_checksum += citation.count;
  }

  const int64_t reference_l2 = ReferenceL2(dataset, begin, end);
  const int64_t reference_l3 = ReferenceL3(dataset, begin, end);
  EXPECT_GT(reference_l2, 0);
  EXPECT_GT(reference_l3, 0);
  EXPECT_EQ(l2_checksum, reference_l2);
  EXPECT_EQ(l3_checksum, reference_l3);
}

}  // namespace
}  // namespace logmine::eval
