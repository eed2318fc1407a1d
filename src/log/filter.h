#ifndef LOGMINE_LOG_FILTER_H_
#define LOGMINE_LOG_FILTER_H_

#include <cstdint>
#include <vector>

#include "log/store.h"
#include "util/time_util.h"

namespace logmine {

/// Record indices with client_ts in [begin, end), in time order.
/// Pre-condition: store.index_built().
std::vector<uint32_t> IndicesInRange(const LogStore& store, TimeMs begin,
                                     TimeMs end);

/// Copies the records of `store` with client_ts in [begin, end) into a
/// fresh store, in time order. Columns are copied and dictionary ids
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
