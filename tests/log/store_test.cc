#include "log/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace logmine {
namespace {

LogRecord Rec(TimeMs ts, std::string source, std::string user = "",
              std::string host = "") {
  LogRecord record;
  record.client_ts = ts;
  record.server_ts = ts + 100;
  record.source = std::move(source);
  record.user = std::move(user);
  record.host = std::move(host);
  record.message = "m" + std::to_string(ts);
  return record;
}

TEST(LogStoreTest, EmptyStore) {
  LogStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.num_sources(), 0u);
  EXPECT_EQ(store.min_ts(), 0);
  EXPECT_EQ(store.max_ts(), 0);
  store.BuildIndex();
  EXPECT_TRUE(store.index_built());
}

TEST(LogStoreTest, AppendRejectsEmptySource) {
  LogStore store;
  LogRecord record = Rec(1, "A");
  record.source.clear();
  EXPECT_FALSE(store.Append(record).ok());
  EXPECT_TRUE(store.empty());
}

TEST(LogStoreTest, InternsDictionaries) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(1, "A", "alice", "h1")).ok());
  ASSERT_TRUE(store.Append(Rec(2, "B", "", "h1")).ok());
  ASSERT_TRUE(store.Append(Rec(3, "A", "alice", "h2")).ok());
  EXPECT_EQ(store.num_sources(), 2u);
  EXPECT_EQ(store.num_hosts(), 2u);
  EXPECT_EQ(store.num_users(), 1u);
  EXPECT_EQ(store.source_id(0), store.source_id(2));
  EXPECT_EQ(store.source_name(store.source_id(0)), "A");
  EXPECT_EQ(store.user_id(1), LogStore::kNoUser);
  EXPECT_EQ(store.user_name(store.user_id(0)), "alice");
}

TEST(LogStoreTest, GetRecordRoundTrips) {
  LogStore store;
  const LogRecord original = Rec(42, "App", "u1", "host9");
  ASSERT_TRUE(store.Append(original).ok());
  EXPECT_EQ(store.GetRecord(0), original);
}

TEST(LogStoreTest, FindSource) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(1, "Alpha")).ok());
  auto found = store.FindSource("Alpha");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), store.source_id(0));
  EXPECT_FALSE(store.FindSource("Beta").ok());
  EXPECT_FALSE(store.FindSource("alpha").ok());  // exact match only
}

TEST(LogStoreTest, SourceTimestampsSortedEvenWithSkewedAppends) {
  LogStore store;
  // Out-of-order appends, as produced by clock skew.
  ASSERT_TRUE(store.Append(Rec(50, "A")).ok());
  ASSERT_TRUE(store.Append(Rec(10, "A")).ok());
  ASSERT_TRUE(store.Append(Rec(30, "B")).ok());
  ASSERT_TRUE(store.Append(Rec(20, "A")).ok());
  store.BuildIndex();
  const auto a = store.FindSource("A");
  ASSERT_TRUE(a.ok());
  const std::span<const TimeMs> ts = store.SourceTimestamps(a.value());
  EXPECT_EQ(std::vector<TimeMs>(ts.begin(), ts.end()),
            (std::vector<TimeMs>{10, 20, 50}));
}

TEST(LogStoreTest, BuildIndexSortsRecordsStably) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(10, "A", "u1", "h1")).ok());  // index 0
  ASSERT_TRUE(store.Append(Rec(10, "B")).ok());  // index 1, same ts
  ASSERT_TRUE(store.Append(Rec(5, "C", "u2")).ok());  // index 2
  const std::vector<LogRecord> appended = store.Records();
  store.BuildIndex();
  // Records now sit in (client_ts, append order): 2, 0, 1.
  EXPECT_EQ(store.Records(),
            (std::vector<LogRecord>{appended[2], appended[0], appended[1]}));
  // Ids and dictionaries are untouched: "A" is still source 0.
  EXPECT_EQ(store.source_id(1), 0u);
  EXPECT_EQ(store.source_name(0), "A");
  EXPECT_EQ(store.user_name(store.user_id(0)), "u2");
  EXPECT_EQ(store.user_name(0), "u1");
}

TEST(LogStoreTest, CountInRangeHalfOpen) {
  LogStore store;
  for (TimeMs t : {10, 20, 30, 40}) {
    ASSERT_TRUE(store.Append(Rec(t, "A")).ok());
  }
  store.BuildIndex();
  const auto a = store.FindSource("A").value();
  EXPECT_EQ(store.CountInRange(a, 10, 40), 3);  // [10, 40) excludes 40
  EXPECT_EQ(store.CountInRange(a, 0, 100), 4);
  EXPECT_EQ(store.CountInRange(a, 41, 100), 0);
  EXPECT_EQ(store.CountInRange(a, 20, 20), 0);
}

TEST(LogStoreTest, SourceTimestampsInRangeIsAZeroCopyViewOfTheIndex) {
  LogStore store;
  for (TimeMs t : {10, 20, 30, 40}) {
    ASSERT_TRUE(store.Append(Rec(t, "A")).ok());
  }
  store.BuildIndex();
  const auto a = store.FindSource("A").value();
  const std::span<const TimeMs> all = store.SourceTimestamps(a);
  for (const auto& [begin, end] : std::vector<std::pair<TimeMs, TimeMs>>{
           {10, 40}, {0, 100}, {41, 100}, {20, 20}, {15, 35}}) {
    const std::span<const TimeMs> view =
        store.SourceTimestampsInRange(a, begin, end);
    // The view agrees with CountInRange and with a filtered copy...
    EXPECT_EQ(static_cast<int64_t>(view.size()),
              store.CountInRange(a, begin, end));
    std::vector<TimeMs> expected;
    for (TimeMs t : all) {
      if (t >= begin && t < end) expected.push_back(t);
    }
    EXPECT_EQ(std::vector<TimeMs>(view.begin(), view.end()), expected);
    // ...and aliases the sorted per-source index, copying nothing.
    if (!view.empty()) {
      EXPECT_GE(view.data(), all.data());
      EXPECT_LE(view.data() + view.size(), all.data() + all.size());
    }
  }
}

TEST(LogStoreTest, MinMaxTs) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(500, "A")).ok());
  ASSERT_TRUE(store.Append(Rec(100, "B")).ok());
  ASSERT_TRUE(store.Append(Rec(900, "A")).ok());
  EXPECT_EQ(store.min_ts(), 100);  // works without index
  EXPECT_EQ(store.max_ts(), 900);
  store.BuildIndex();
  EXPECT_EQ(store.min_ts(), 100);  // and with it
  EXPECT_EQ(store.max_ts(), 900);
}

TEST(LogStoreTest, AppendInvalidatesIndex) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(1, "A")).ok());
  store.BuildIndex();
  EXPECT_TRUE(store.index_built());
  ASSERT_TRUE(store.Append(Rec(2, "A")).ok());
  EXPECT_FALSE(store.index_built());
  store.BuildIndex();
  EXPECT_EQ(store.SourceTimestamps(store.FindSource("A").value()).size(), 2u);
}

TEST(LogStoreTest, BuildIndexIsIdempotent) {
  LogStore store;
  ASSERT_TRUE(store.Append(Rec(1, "A")).ok());
  ASSERT_TRUE(store.Append(Rec(0, "B")).ok());
  store.BuildIndex();
  const std::vector<LogRecord> once = store.Records();
  store.BuildIndex();
  EXPECT_EQ(store.Records(), once);
  EXPECT_EQ(store.client_ts(0), 0);
}

// The record columns of `store` gathered in `order` (every record in
// store order when empty), with its dictionaries as they are.
LogStore::Columns ColumnsOf(const LogStore& store,
                            std::vector<size_t> order = {}) {
  if (order.empty()) {
    order.resize(store.size());
    std::iota(order.begin(), order.end(), size_t{0});
  }
  LogStore::Columns columns;
  for (size_t i : order) {
    columns.client_ts.push_back(store.client_ts(i));
    columns.server_ts.push_back(store.server_ts(i));
    columns.severity.push_back(store.severity(i));
    columns.source_ids.push_back(store.source_id(i));
    columns.host_ids.push_back(store.host_id(i));
    columns.user_ids.push_back(store.user_id(i));
    columns.message_data += store.message(i);
    columns.message_ends.push_back(columns.message_data.size());
  }
  for (size_t i = 0; i < store.num_sources(); ++i)
    columns.source_names.emplace_back(
        store.source_name(static_cast<uint32_t>(i)));
  for (size_t i = 0; i < store.num_hosts(); ++i)
    columns.host_names.emplace_back(store.host_name(static_cast<uint32_t>(i)));
  for (size_t i = 0; i < store.num_users(); ++i)
    columns.user_names.emplace_back(store.user_name(static_cast<uint32_t>(i)));
  return columns;
}

// An unindexed copy of `store`, records in store order.
LogStore CopyOf(const LogStore& store) {
  return LogStore::FromColumns(ColumnsOf(store)).value();
}

TEST(LogStoreTest, FromColumnsRoundTripsAndValidates) {
  LogStore original;
  ASSERT_TRUE(original.Append(Rec(100, "A", "u1", "h1")).ok());
  ASSERT_TRUE(original.Append(Rec(200, "B", "", "")).ok());
  const auto columns_of = [](const LogStore& store) {
    return ColumnsOf(store);
  };

  auto rebuilt = LogStore::FromColumns(columns_of(original));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ASSERT_EQ(rebuilt.value().size(), 2u);
  EXPECT_EQ(rebuilt.value().host_id(1), LogStore::kNoHost);
  EXPECT_EQ(rebuilt.value().user_id(1), LogStore::kNoUser);
  // The intern maps are rebuilt, not just the name vectors.
  EXPECT_EQ(rebuilt.value().FindSource("B").value(), original.source_id(1));

  // Ragged columns are rejected.
  auto ragged = columns_of(original);
  ragged.server_ts.pop_back();
  EXPECT_FALSE(LogStore::FromColumns(std::move(ragged)).ok());

  // Out-of-range ids are rejected.
  auto bad_id = columns_of(original);
  bad_id.source_ids[0] = 99;
  EXPECT_FALSE(LogStore::FromColumns(std::move(bad_id)).ok());

  // Duplicate dictionary names are rejected.
  auto dup = columns_of(original);
  dup.source_names.push_back(dup.source_names[0]);
  EXPECT_FALSE(LogStore::FromColumns(std::move(dup)).ok());

  // Message offsets that overrun the arena are rejected.
  auto bad_arena = columns_of(original);
  bad_arena.message_ends.back() += 1;
  EXPECT_FALSE(LogStore::FromColumns(std::move(bad_arena)).ok());

  // Non-monotone message offsets are rejected.
  auto backwards = columns_of(original);
  std::swap(backwards.message_ends.front(), backwards.message_ends.back());
  EXPECT_FALSE(LogStore::FromColumns(std::move(backwards)).ok());
}

// --- index property tests --------------------------------------------
//
// BuildIndex against a reference: the records of the store before the
// call, gathered in the order of a std::stable_sort of their indices by
// client_ts — every column, every message and the dictionaries — and a
// sorted copy of each source's timestamps.

void ExpectIndexMatchesReference(LogStore* store) {
  const LogStore before = CopyOf(*store);
  std::vector<size_t> order(before.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return before.client_ts(a) < before.client_ts(b);
  });
  store->BuildIndex();
  ASSERT_TRUE(store->index_built());
  const LogStore expected =
      LogStore::FromColumns(ColumnsOf(before, order)).value();
  EXPECT_TRUE(*store == expected);
  ASSERT_EQ(store->size(), before.size());
  for (size_t i = 0; i < store->size(); ++i) {
    if (!(store->GetRecord(i) == before.GetRecord(order[i])) ||
        store->source_id(i) != before.source_id(order[i]) ||
        store->host_id(i) != before.host_id(order[i]) ||
        store->user_id(i) != before.user_id(order[i])) {
      ADD_FAILURE() << "record " << i << " is not appended record "
                    << order[i];
      break;
    }
  }
  for (LogStore::SourceId s = 0; s < before.num_sources(); ++s) {
    std::vector<TimeMs> expected_ts;
    for (size_t i = 0; i < before.size(); ++i) {
      if (before.source_id(i) == s) expected_ts.push_back(before.client_ts(i));
    }
    std::sort(expected_ts.begin(), expected_ts.end());
    const std::span<const TimeMs> got = store->SourceTimestamps(s);
    EXPECT_EQ(std::vector<TimeMs>(got.begin(), got.end()), expected_ts)
        << "source " << s;
  }
  if (!store->empty()) {
    EXPECT_EQ(store->min_ts(), before.client_ts(order.front()));
    EXPECT_EQ(store->max_ts(), before.client_ts(order.back()));
  }
}

// Appends `n` records with client_ts uniform in [lo, hi] over `sources`
// sources, plus one record at each end so the span is exactly hi - lo.
void AppendRandom(LogStore* store, Rng* rng, size_t n, TimeMs lo, TimeMs hi,
                  int sources) {
  auto append = [&](TimeMs ts) {
    LogRecord record;
    record.client_ts = ts;
    record.server_ts = ts;  // Rec's ts + 100 would overflow at INT64_MAX
    record.source = "S" + std::to_string(rng->UniformInt(0, sources - 1));
    ASSERT_TRUE(store->Append(record).ok());
  };
  append(hi);
  for (size_t i = 0; i < n; ++i) {
    // Offsets from lo in uint64 cover spans wider than INT64_MAX.
    const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    const uint64_t offset = span == UINT64_MAX ? rng->Next()
                                               : rng->Next() % (span + 1);
    append(static_cast<TimeMs>(static_cast<uint64_t>(lo) + offset));
  }
  append(lo);
}

TEST(LogStoreIndexPropertyTest, EmptyAndOneRecordStores) {
  LogStore empty;
  ExpectIndexMatchesReference(&empty);
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty == LogStore{});

  LogStore one;
  ASSERT_TRUE(one.Append(Rec(-42, "A")).ok());
  ExpectIndexMatchesReference(&one);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.GetRecord(0), Rec(-42, "A"));
}

TEST(LogStoreIndexPropertyTest, DictionarySourceWithoutRecords) {
  LogStore::Columns columns;
  columns.client_ts = {30, 10, 20, 10};
  columns.server_ts = {30, 10, 20, 10};
  columns.severity.assign(4, Severity::kInfo);
  columns.source_ids = {2, 0, 2, 0};  // source 1 ("B") has no records
  columns.host_ids.assign(4, LogStore::kNoHost);
  columns.user_ids.assign(4, LogStore::kNoUser);
  columns.source_names = {"A", "B", "C"};
  auto store = LogStore::FromColumns(std::move(columns));
  ASSERT_TRUE(store.ok()) << store.status();
  ExpectIndexMatchesReference(&store.value());
  EXPECT_TRUE(store.value().SourceTimestamps(1).empty());
  EXPECT_EQ(store.value().CountInRange(1, INT64_MIN, INT64_MAX), 0);
}

TEST(LogStoreIndexPropertyTest, EqualTimestampsAcrossSourcesKeepInsertionOrder) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    LogStore all_equal;
    AppendRandom(&all_equal, &rng, 500, 7, 7, 6);
    ExpectIndexMatchesReference(&all_equal);
    LogStore many_ties;
    AppendRandom(&many_ties, &rng, 2000, -2, 3, 6);
    ExpectIndexMatchesReference(&many_ties);
  }
}

TEST(LogStoreIndexPropertyTest, NegativeTimestamps) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    LogStore store;
    AppendRandom(&store, &rng, 3000, -5'000'000, -1'000, 9);
    ExpectIndexMatchesReference(&store);
    LogStore straddling;
    AppendRandom(&straddling, &rng, 3000, -1'000'000, 1'000'000, 9);
    ExpectIndexMatchesReference(&straddling);
  }
}

TEST(LogStoreIndexPropertyTest, SpansAroundEveryDigitBoundary) {
  // Spans just below and above one (2^16) and two (2^32) 16-bit digits,
  // from a negative and a positive origin.
  for (TimeMs origin : {TimeMs{-123'456'789}, TimeMs{1'700'000'000'000}}) {
    for (TimeMs span : {(TimeMs{1} << 16) - 1, TimeMs{1} << 16,
                        (TimeMs{1} << 32) - 1, TimeMs{1} << 32}) {
      Rng rng(static_cast<uint64_t>(span) ^ static_cast<uint64_t>(origin));
      LogStore store;
      AppendRandom(&store, &rng, 3000, origin, origin + span, 7);
      SCOPED_TRACE("origin " + std::to_string(origin) + " span " +
                   std::to_string(span));
      ExpectIndexMatchesReference(&store);
    }
  }
}

TEST(LogStoreIndexPropertyTest, FullInt64Span) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    LogStore store;
    AppendRandom(&store, &rng, 3000, INT64_MIN, INT64_MAX, 5);
    ExpectIndexMatchesReference(&store);
  }
}

TEST(LogStoreIndexPropertyTest, SortedAndReverseSortedInput) {
  Rng rng(11);
  std::vector<TimeMs> ts(2000);
  for (TimeMs& t : ts) t = rng.UniformInt(-100'000, 10'000'000);
  std::sort(ts.begin(), ts.end());
  LogStore sorted;
  for (size_t i = 0; i < ts.size(); ++i) {
    ASSERT_TRUE(sorted.Append(Rec(ts[i], "S" + std::to_string(i % 4))).ok());
  }
  // An already-sorted store is left exactly as it was.
  const LogStore sorted_before = CopyOf(sorted);
  ExpectIndexMatchesReference(&sorted);
  EXPECT_TRUE(sorted == sorted_before);

  LogStore reversed;
  for (size_t i = ts.size(); i-- > 0;) {
    ASSERT_TRUE(reversed.Append(Rec(ts[i], "S" + std::to_string(i % 4))).ok());
  }
  ExpectIndexMatchesReference(&reversed);
}

TEST(LogStoreIndexPropertyTest, ReindexAfterAppend) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    LogStore store;
    AppendRandom(&store, &rng, 1000, 0, 7 * 86'400'000, 8);
    ExpectIndexMatchesReference(&store);
    // New records reach both below and above the old range, and bring a
    // new source.
    AppendRandom(&store, &rng, 1000, -86'400'000, 9 * 86'400'000, 10);
    EXPECT_FALSE(store.index_built());
    ExpectIndexMatchesReference(&store);
  }
}

}  // namespace
}  // namespace logmine
