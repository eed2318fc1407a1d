#include "log/filter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace logmine {
namespace {

LogRecord Rec(TimeMs ts, std::string source, std::string user = "") {
  LogRecord record;
  record.client_ts = ts;
  record.server_ts = ts;
  record.source = std::move(source);
  record.user = std::move(user);
  record.message = "x";
  return record;
}

class FilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (TimeMs t : {5, 10, 15, 20, 25}) {
      ASSERT_TRUE(store_.Append(Rec(t, t % 10 == 5 ? "A" : "B",
                                    t >= 15 ? "u1" : "")).ok());
    }
    store_.BuildIndex();
  }
  LogStore store_;
};

TEST_F(FilterTest, IndicesInRangeHalfOpenAndOrdered) {
  const RecordRange range = IndicesInRange(store_, 10, 25);
  ASSERT_EQ(range.size(), 3u);
  std::vector<TimeMs> ts;
  for (size_t idx : range) ts.push_back(store_.client_ts(idx));
  EXPECT_EQ(ts, (std::vector<TimeMs>{10, 15, 20}));
}

TEST_F(FilterTest, IndicesInRangeEmptyWindow) {
  EXPECT_TRUE(IndicesInRange(store_, 100, 200).empty());
  EXPECT_TRUE(IndicesInRange(store_, 11, 11).empty());
  EXPECT_TRUE(IndicesInRange(store_, 20, 10).empty());
  EXPECT_EQ(IndicesInRange(store_, 0, 100).size(), store_.size());
}

TEST(IndicesInRangeTest, IsTheContiguousRunOfAFilterOverTheTimeOrder) {
  // Against a reference: after BuildIndex, the stable time order of the
  // appended records, filtered to [begin, end).
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    LogStore store;
    std::vector<std::pair<TimeMs, int>> appended;  // (ts, append index)
    for (int i = 0; i < 400; ++i) {
      const TimeMs ts = rng.UniformInt(-20, 60);
      appended.emplace_back(ts, i);
      ASSERT_TRUE(store.Append(Rec(ts, "src" + std::to_string(i))).ok());
    }
    std::stable_sort(appended.begin(), appended.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    store.BuildIndex();
    for (int r = 0; r < 50; ++r) {
      const TimeMs begin = rng.UniformInt(-25, 65);
      const TimeMs end = begin + rng.UniformInt(-3, 30);
      std::vector<std::string> want;
      for (const auto& [ts, i] : appended) {
        if (ts >= begin && ts < end) want.push_back("src" + std::to_string(i));
      }
      std::vector<std::string> got;
      const RecordRange range = IndicesInRange(store, begin, end);
      for (size_t idx : range) {
        got.emplace_back(store.source_name(store.source_id(idx)));
      }
      EXPECT_EQ(got, want) << "[" << begin << ", " << end << ")";
      EXPECT_EQ(range.size(), want.size());
      EXPECT_LE(range.last, store.size());
    }
  }
}

TEST_F(FilterTest, SliceByTimeCopiesWindow) {
  const LogStore slice = SliceByTime(store_, 10, 21);
  EXPECT_EQ(slice.size(), 3u);
  EXPECT_TRUE(slice.index_built());
  EXPECT_EQ(slice.min_ts(), 10);
  EXPECT_EQ(slice.max_ts(), 20);
  // Dictionary ids re-interned but names preserved.
  EXPECT_TRUE(slice.FindSource("A").ok());
  EXPECT_TRUE(slice.FindSource("B").ok());
}

// --- SliceByTime property test ----------------------------------------
//
// SliceByTime against a reference: the loop of Append(GetRecord(i))
// over the range's time order, which the column copy replaced.

LogStore ReferenceSlice(const LogStore& store, TimeMs begin, TimeMs end) {
  LogStore out;
  for (size_t idx = 0; idx < store.size(); ++idx) {
    const TimeMs ts = store.client_ts(idx);
    if (ts >= begin && ts < end) {
      EXPECT_TRUE(out.Append(store.GetRecord(idx)).ok());
    }
  }
  out.BuildIndex();
  return out;
}

void ExpectSliceMatchesReference(const LogStore& store, TimeMs begin,
                                 TimeMs end) {
  SCOPED_TRACE("[" + std::to_string(begin) + ", " + std::to_string(end) +
               ")");
  const LogStore slice = SliceByTime(store, begin, end);
  const LogStore reference = ReferenceSlice(store, begin, end);
  // Columns, message arena, ids and dictionaries (names in id order).
  EXPECT_TRUE(slice == reference);
  ASSERT_EQ(slice.size(), reference.size());
  ASSERT_EQ(slice.num_sources(), reference.num_sources());
  for (size_t i = 0; i < slice.size(); ++i) {
    EXPECT_EQ(slice.message(i), reference.message(i));
    EXPECT_EQ(slice.host_id(i), reference.host_id(i));
    EXPECT_EQ(slice.user_id(i), reference.user_id(i));
  }
  ASSERT_TRUE(slice.index_built());
  // The slice is in time order, like the store it was cut from.
  for (size_t i = 1; i < slice.size(); ++i) {
    EXPECT_LE(slice.client_ts(i - 1), slice.client_ts(i)) << "record " << i;
  }
  for (uint32_t s = 0; s < slice.num_sources(); ++s) {
    const auto got = slice.SourceTimestamps(s);
    const auto want = reference.SourceTimestamps(s);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "source " << s;
  }
}

TEST(SliceByTimeTest, MatchesAppendingTheRecordsOneByOne) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    LogStore store;
    // Out-of-order timestamps over a narrow span, so ties abound; about
    // a third of the records carry no host and a third no user.
    for (int i = 0; i < 300; ++i) {
      LogRecord record;
      record.client_ts = rng.UniformInt(0, 60);
      record.server_ts = record.client_ts + rng.UniformInt(0, 5);
      record.severity = static_cast<Severity>(rng.UniformInt(0, 3));
      record.source = "src" + std::to_string(rng.UniformInt(0, 6));
      if (rng.Bernoulli(0.67)) {
        record.host = "host" + std::to_string(rng.UniformInt(0, 4));
      }
      if (rng.Bernoulli(0.67)) {
        record.user = "user" + std::to_string(rng.UniformInt(0, 20));
      }
      record.message = std::string(static_cast<size_t>(i % 7), 'm') +
                       std::to_string(i);
      ASSERT_TRUE(store.Append(record).ok());
    }
    store.BuildIndex();
    const TimeMs lo = store.min_ts();
    const TimeMs hi = store.max_ts();
    // The whole store, empty ranges inside and outside it, and ranges
    // whose boundaries fall on (tied) timestamps.
    ExpectSliceMatchesReference(store, lo, hi + 1);
    ExpectSliceMatchesReference(store, lo - 100, hi + 100);
    ExpectSliceMatchesReference(store, 30, 30);
    ExpectSliceMatchesReference(store, hi + 1, hi + 50);
    ExpectSliceMatchesReference(store, lo - 50, lo);
    ExpectSliceMatchesReference(store, lo, lo + 1);
    ExpectSliceMatchesReference(store, hi, hi + 1);
    for (int r = 0; r < 20; ++r) {
      const TimeMs begin = rng.UniformInt(lo - 2, hi + 2);
      ExpectSliceMatchesReference(store, begin,
                                  begin + rng.UniformInt(0, 30));
    }
  }
}

TEST_F(FilterTest, CountsPerSource) {
  const auto counts = CountsPerSource(store_, 0, 100);
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  EXPECT_EQ(total, 5);
  EXPECT_EQ(counts.size(), store_.num_sources());
  const auto a = store_.FindSource("A").value();
  EXPECT_EQ(counts[a], 3);  // 5, 15, 25
}

}  // namespace
}  // namespace logmine
