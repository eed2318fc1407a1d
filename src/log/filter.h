#ifndef LOGMINE_LOG_FILTER_H_
#define LOGMINE_LOG_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <vector>

#include "log/store.h"
#include "util/time_util.h"

namespace logmine {

/// A contiguous run of record indices [first, last) of an indexed store:
/// iterable (`for (size_t idx : range)`), free to copy, no allocation.
/// Valid until the store's next Append or BuildIndex.
struct RecordRange {
  size_t first = 0;
  size_t last = 0;

  size_t size() const { return last - first; }
  bool empty() const { return first == last; }
  auto begin() const { return std::views::iota(first, last).begin(); }
  auto end() const { return std::views::iota(first, last).end(); }
};

/// The records with client_ts in [begin, end): an indexed store is in
/// time order, so they are one contiguous range, found by two binary
/// searches on client_ts. Pre-condition: store.index_built().
RecordRange IndicesInRange(const LogStore& store, TimeMs begin, TimeMs end);

/// Copies the records of `store` with client_ts in [begin, end) into a
/// fresh store, in time order. Columns are copied in one pass over the
/// range, the messages as one substring of the arena, and dictionary ids
/// remapped through one table entry per dictionary entry, so the
/// slice's ids are first-seen in time order and it equals a store built
/// by appending the same records one by one. The slice holds only the
/// names its records use, and its index is built. The streaming
/// service cuts its epochs this way. Pre-condition: store.index_built().
LogStore SliceByTime(const LogStore& store, TimeMs begin, TimeMs end);

/// Per-source log counts within [begin, end); the load measure of §4.9.
std::vector<int64_t> CountsPerSource(const LogStore& store, TimeMs begin,
                                     TimeMs end);

}  // namespace logmine

#endif  // LOGMINE_LOG_FILTER_H_
