#include "log/filter.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <ranges>
#include <utility>

namespace logmine {

RecordRange IndicesInRange(const LogStore& store, TimeMs begin, TimeMs end) {
  assert(store.index_built());
  const auto all = std::views::iota(size_t{0}, store.size());
  auto ts = [&store](size_t idx) { return store.client_ts(idx); };
  const size_t first = *std::ranges::lower_bound(all, begin, {}, ts);
  const size_t last = *std::ranges::lower_bound(
      std::views::iota(first, store.size()), end, {}, ts);
  return {first, last};
}

LogStore SliceByTime(const LogStore& store, TimeMs begin, TimeMs end) {
  LogStore::Columns columns;
  NameInterner sources;
  NameInterner hosts;
  NameInterner users;
  IdRemap source_ids(store.num_sources(), &sources);
  IdRemap host_ids(store.num_hosts(), &hosts);
  IdRemap user_ids(store.num_users(), &users);
  const RecordRange records = IndicesInRange(store, begin, end);
  const size_t n = records.size();
  columns.client_ts.reserve(n);
  columns.server_ts.reserve(n);
  columns.severity.reserve(n);
  columns.source_ids.reserve(n);
  columns.host_ids.reserve(n);
  columns.user_ids.reserve(n);
  columns.message_ends.reserve(n);
  size_t message_end = 0;
  for (size_t idx : records) {
    columns.client_ts.push_back(store.client_ts(idx));
    columns.server_ts.push_back(store.server_ts(idx));
    columns.severity.push_back(store.severity(idx));
    const LogStore::SourceId source = store.source_id(idx);
    columns.source_ids.push_back(
        source_ids.Map(source, store.source_name(source)));
    const LogStore::HostId host = store.host_id(idx);
    columns.host_ids.push_back(host == LogStore::kNoHost
                                   ? host
                                   : host_ids.Map(host, store.host_name(host)));
    const LogStore::UserId user = store.user_id(idx);
    columns.user_ids.push_back(user == LogStore::kNoUser
                                   ? user
                                   : user_ids.Map(user, store.user_name(user)));
    message_end += store.message(idx).size();
    columns.message_ends.push_back(message_end);
  }
  columns.message_data = store.messages(records.first, records.last);
  columns.source_names = sources.TakeNames();
  columns.host_names = hosts.TakeNames();
  columns.user_names = users.TakeNames();
  // Well-formed by construction: the ids index the dictionaries just
  // built, which hold the source store's (unique, non-empty) names.
  LogStore out = LogStore::FromColumns(std::move(columns)).value();
  out.BuildIndex();
  return out;
}

std::vector<int64_t> CountsPerSource(const LogStore& store, TimeMs begin,
                                     TimeMs end) {
  assert(store.index_built());
  std::vector<int64_t> counts(store.num_sources(), 0);
  for (size_t s = 0; s < store.num_sources(); ++s) {
    counts[s] =
        store.CountInRange(static_cast<LogStore::SourceId>(s), begin, end);
  }
  return counts;
}

}  // namespace logmine
