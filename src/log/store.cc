#include "log/store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <numeric>
#include <tuple>
#include <utility>

#include "obs/obs.h"

namespace logmine {
namespace {

constexpr int kDigitBits = 16;
constexpr size_t kBuckets = size_t{1} << kDigitBits;

// The indices of `ts` sorted by (ts, index): a stable LSD radix sort
// over 16-bit digits of ts - min(ts), computed in uint64 so negative
// timestamps and a span as wide as INT64_MIN..INT64_MAX sort right. A
// span below 2^16 ms takes one pass, below 2^32 ms (49 days) two.
// Pre-condition: `ts` is not sorted, so its span is positive and at
// least one pass runs.
std::vector<uint32_t> RadixTimeOrder(const std::vector<TimeMs>& ts) {
  const size_t n = ts.size();
  std::vector<uint32_t> order(n);
  const auto [lo, hi] = std::minmax_element(ts.begin(), ts.end());
  const auto min = static_cast<uint64_t>(*lo);
  const int digits =
      (std::bit_width(static_cast<uint64_t>(*hi) - min) + kDigitBits - 1) /
      kDigitBits;
  // Every digit's histogram from one read of the keys, then turned into
  // bucket start offsets.
  std::vector<uint32_t> offsets(digits * kBuckets, 0);
  for (TimeMs t : ts) {
    uint64_t key = static_cast<uint64_t>(t) - min;
    for (int d = 0; d < digits; ++d, key >>= kDigitBits) {
      ++offsets[d * kBuckets + (key & (kBuckets - 1))];
    }
  }
  for (int d = 0; d < digits; ++d) {
    uint32_t* bucket = offsets.data() + d * kBuckets;
    std::exclusive_scan(bucket, bucket + kBuckets, bucket, 0u);
  }
  // Each pass scatters (key, index) pairs from one buffer to the other;
  // the first reads the input column, the last writes only indices,
  // straight into `order`.
  std::unique_ptr<uint64_t[]> keys[2];
  std::unique_ptr<uint32_t[]> ids[2];
  for (int p = 0; p < digits; ++p) {
    const bool first = p == 0;
    const bool last = p + 1 == digits;
    uint32_t* bucket = offsets.data() + p * kBuckets;
    const int shift = p * kDigitBits;
    const uint64_t* in_keys = first ? nullptr : keys[p % 2].get();
    const uint32_t* in_ids = first ? nullptr : ids[p % 2].get();
    if (!last && !keys[(p + 1) % 2]) {
      keys[(p + 1) % 2] = std::make_unique_for_overwrite<uint64_t[]>(n);
      ids[(p + 1) % 2] = std::make_unique_for_overwrite<uint32_t[]>(n);
    }
    uint64_t* out_keys = last ? nullptr : keys[(p + 1) % 2].get();
    uint32_t* out_ids = last ? order.data() : ids[(p + 1) % 2].get();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key =
          first ? static_cast<uint64_t>(ts[i]) - min : in_keys[i];
      const uint32_t pos = bucket[(key >> shift) & (kBuckets - 1)]++;
      out_ids[pos] = first ? static_cast<uint32_t>(i) : in_ids[i];
      if (!last) out_keys[pos] = key;
    }
  }
  return order;
}

// Replaces `column` by its entries in `order`.
template <typename T>
void Gather(const std::vector<uint32_t>& order, std::vector<T>* column) {
  std::vector<T> out;
  out.reserve(order.size());
  for (uint32_t i : order) out.push_back((*column)[i]);
  *column = std::move(out);
}

}  // namespace

Status LogStore::Append(const LogRecord& record) {
  if (record.source.empty()) {
    return Status::InvalidArgument("log record without source");
  }
  client_ts_.push_back(record.client_ts);
  server_ts_.push_back(record.server_ts);
  severity_.push_back(record.severity);
  source_ids_.push_back(sources_.Intern(record.source));
  host_ids_.push_back(record.host.empty() ? kNoHost
                                          : hosts_.Intern(record.host));
  user_ids_.push_back(record.user.empty() ? kNoUser
                                          : users_.Intern(record.user));
  message_data_ += record.message;
  message_ends_.push_back(message_data_.size());
  index_built_ = false;
  return Status::OK();
}

Result<LogStore> LogStore::FromColumns(Columns&& columns) {
  const size_t n = columns.client_ts.size();
  if (columns.server_ts.size() != n || columns.severity.size() != n ||
      columns.source_ids.size() != n || columns.host_ids.size() != n ||
      columns.user_ids.size() != n ||
      (!columns.message_ends.empty() && columns.message_ends.size() != n)) {
    return Status::InvalidArgument("ragged columns: record vectors disagree");
  }
  if (columns.message_ends.empty()) {
    if (!columns.message_data.empty()) {
      return Status::InvalidArgument(
          "message arena without message offsets");
    }
  } else {
    size_t prev_end = 0;
    for (size_t end : columns.message_ends) {
      if (end < prev_end) {
        return Status::InvalidArgument("message offsets not monotone");
      }
      prev_end = end;
    }
    if (prev_end != columns.message_data.size()) {
      return Status::InvalidArgument(
          "message offsets disagree with the arena size");
    }
  }
  LogStore store;
  for (auto [names, dictionary, what] :
       {std::tuple{&columns.source_names, &store.sources_, "source"},
        std::tuple{&columns.host_names, &store.hosts_, "host"},
        std::tuple{&columns.user_names, &store.users_, "user"}}) {
    for (size_t i = 0; i < names->size(); ++i) {
      const std::string& name = (*names)[i];
      if (name.empty()) {
        return Status::InvalidArgument(std::string("empty ") + what +
                                       " dictionary entry");
      }
      if (dictionary->Intern(name) != i) {
        return Status::InvalidArgument(std::string("duplicate ") + what +
                                       " dictionary entry: " + name);
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (columns.source_ids[i] >= store.sources_.size()) {
      return Status::InvalidArgument("source id out of range at record " +
                                     std::to_string(i));
    }
    if (columns.host_ids[i] != kNoHost &&
        columns.host_ids[i] >= store.hosts_.size()) {
      return Status::InvalidArgument("host id out of range at record " +
                                     std::to_string(i));
    }
    if (columns.user_ids[i] != kNoUser &&
        columns.user_ids[i] >= store.users_.size()) {
      return Status::InvalidArgument("user id out of range at record " +
                                     std::to_string(i));
    }
  }
  store.client_ts_ = std::move(columns.client_ts);
  store.server_ts_ = std::move(columns.server_ts);
  store.severity_ = std::move(columns.severity);
  store.source_ids_ = std::move(columns.source_ids);
  store.host_ids_ = std::move(columns.host_ids);
  store.user_ids_ = std::move(columns.user_ids);
  store.message_data_ = std::move(columns.message_data);
  store.message_ends_ = std::move(columns.message_ends);
  if (store.message_ends_.empty()) store.message_ends_.assign(n, 0);
  return store;
}

LogRecord LogStore::GetRecord(size_t i) const {
  LogRecord record;
  record.client_ts = client_ts_[i];
  record.server_ts = server_ts_[i];
  record.severity = severity_[i];
  record.source = sources_.name(source_ids_[i]);
  if (host_ids_[i] != kNoHost) record.host = hosts_.name(host_ids_[i]);
  if (user_ids_[i] != kNoUser) record.user = users_.name(user_ids_[i]);
  record.message = message(i);
  return record;
}

std::vector<LogRecord> LogStore::Records() const {
  std::vector<LogRecord> records;
  records.reserve(size());
  for (size_t i = 0; i < size(); ++i) records.push_back(GetRecord(i));
  return records;
}

bool operator==(const LogStore& a, const LogStore& b) {
  return a.client_ts_ == b.client_ts_ && a.server_ts_ == b.server_ts_ &&
         a.severity_ == b.severity_ && a.source_ids_ == b.source_ids_ &&
         a.host_ids_ == b.host_ids_ && a.user_ids_ == b.user_ids_ &&
         a.message_data_ == b.message_data_ &&
         a.message_ends_ == b.message_ends_ &&
         a.sources_.names() == b.sources_.names() &&
         a.hosts_.names() == b.hosts_.names() &&
         a.users_.names() == b.users_.names();
}

Result<LogStore::SourceId> LogStore::FindSource(std::string_view name) const {
  const std::optional<uint32_t> id = sources_.Find(name);
  if (!id) return Status::NotFound("unknown source: " + std::string(name));
  return *id;
}

void LogStore::BuildIndex() {
  if (index_built_) return;
  LOGMINE_SPAN_GLOBAL("store/build_index", obs::Metric::kStoreIndexBuildNs);
  obs::Count(obs::Metric::kStoreIndexBuilds);
  obs::Count(obs::Metric::kStoreRecordsIndexed, static_cast<int64_t>(size()));
  if (!std::is_sorted(client_ts_.begin(), client_ts_.end())) {
    // A text corpus written by WriteCorpusFile, and every columnar file
    // written from an indexed store, is already sorted and skips this.
    const std::vector<uint32_t> order = RadixTimeOrder(client_ts_);
    Gather(order, &client_ts_);
    Gather(order, &server_ts_);
    Gather(order, &severity_);
    Gather(order, &source_ids_);
    Gather(order, &host_ids_);
    Gather(order, &user_ids_);
    std::string data;
    data.reserve(message_data_.size());
    std::vector<size_t> ends;
    ends.reserve(order.size());
    for (uint32_t i : order) {
      data += message(i);
      ends.push_back(data.size());
    }
    message_data_ = std::move(data);
    message_ends_ = std::move(ends);
  }
  // CSR per-source column: count, prefix-sum, then scatter the records
  // in their (time) order, which leaves every source's slice sorted
  // without a sort.
  source_begin_.assign(sources_.size() + 1, 0);
  for (SourceId s : source_ids_) ++source_begin_[s + 1];
  std::partial_sum(source_begin_.begin(), source_begin_.end(),
                   source_begin_.begin());
  source_ts_.resize(size());
  std::vector<size_t> fill(source_begin_.begin(), source_begin_.end() - 1);
  for (size_t i = 0; i < size(); ++i) {
    source_ts_[fill[source_ids_[i]]++] = client_ts_[i];
  }
  index_built_ = true;
}

std::span<const TimeMs> LogStore::SourceTimestamps(SourceId source) const {
  assert(index_built_);
  return std::span<const TimeMs>(source_ts_).subspan(
      source_begin_[source], source_begin_[source + 1] - source_begin_[source]);
}

std::span<const TimeMs> LogStore::SourceTimestampsInRange(SourceId source,
                                                          TimeMs begin,
                                                          TimeMs end) const {
  obs::Count(obs::Metric::kStoreRangeQueries);
  const std::span<const TimeMs> ts = SourceTimestamps(source);
  auto lo = std::lower_bound(ts.begin(), ts.end(), begin);
  auto hi = std::lower_bound(lo, ts.end(), end);
  return {lo, hi};
}

int64_t LogStore::CountInRange(SourceId source, TimeMs begin,
                               TimeMs end) const {
  return static_cast<int64_t>(
      SourceTimestampsInRange(source, begin, end).size());
}

TimeMs LogStore::min_ts() const {
  if (empty()) return 0;
  if (index_built_) return client_ts_.front();
  return *std::min_element(client_ts_.begin(), client_ts_.end());
}

TimeMs LogStore::max_ts() const {
  if (empty()) return 0;
  if (index_built_) return client_ts_.back();
  return *std::max_element(client_ts_.begin(), client_ts_.end());
}

}  // namespace logmine
