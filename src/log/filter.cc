#include "log/filter.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace logmine {

std::vector<uint32_t> IndicesInRange(const LogStore& store, TimeMs begin,
                                     TimeMs end) {
  assert(store.index_built());
  const std::vector<uint32_t>& order = store.TimeOrder();
  auto lo = std::lower_bound(order.begin(), order.end(), begin,
                             [&store](uint32_t idx, TimeMs t) {
                               return store.client_ts(idx) < t;
                             });
  auto hi = std::lower_bound(lo, order.end(), end,
                             [&store](uint32_t idx, TimeMs t) {
                               return store.client_ts(idx) < t;
                             });
  return {lo, hi};
}

LogStore SliceByTime(const LogStore& store, TimeMs begin, TimeMs end) {
  LogStore::Columns columns;
  NameInterner sources;
  NameInterner hosts;
  NameInterner users;
  IdRemap source_ids(store.num_sources(), &sources);
  IdRemap host_ids(store.num_hosts(), &hosts);
  IdRemap user_ids(store.num_users(), &users);
  for (uint32_t idx : IndicesInRange(store, begin, end)) {
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
    columns.message_data += store.message(idx);
    columns.message_ends.push_back(columns.message_data.size());
  }
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
