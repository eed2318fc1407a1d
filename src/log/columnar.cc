#include "log/columnar.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "util/huge_pages.h"
#include "util/mmap_file.h"

namespace logmine {
namespace {

constexpr std::string_view kContainerMagic = "LMSN";

// --- LEB128 varints with zigzag for signed deltas ---------------------

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutZigzag(std::string* out, int64_t v) {
  PutVarint(out, (static_cast<uint64_t>(v) << 1) ^
                     static_cast<uint64_t>(v >> 63));
}

// Raw varint reader for the per-record decode loops: they run several
// varints per record over the whole corpus, so failure is signalled by
// a bool and the (cold) Status is only built by the caller. The
// one-byte case — almost every severity, id and delta — never enters
// the loop.
inline bool GetVarint(const unsigned char** p, const unsigned char* end,
                      uint64_t* v) {
  if (*p < end && **p < 0x80) {
    *v = *(*p)++;
    return true;
  }
  uint64_t out = 0;
  for (int shift = 0; shift < 64 && *p < end; shift += 7) {
    const unsigned char byte = *(*p)++;
    out |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = out;
      return true;
    }
  }
  return false;  // truncated or overlong
}

inline bool GetZigzag(const unsigned char** p, const unsigned char* end,
                      int64_t* v) {
  uint64_t raw;
  if (!GetVarint(p, end, &raw)) return false;
  *v = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  return true;
}

const unsigned char* ColumnBegin(std::string_view column) {
  return reinterpret_cast<const unsigned char*>(column.data());
}

// 0 encodes the kNoHost/kNoUser sentinel, real ids shift up by one — so
// the common no-context case costs one byte instead of five.
uint64_t EncodeOptionalId(uint32_t id) {
  return id == UINT32_MAX ? 0 : static_cast<uint64_t>(id) + 1;
}

Result<uint32_t> DecodeOptionalId(uint64_t encoded) {
  if (encoded == 0) return UINT32_MAX;
  if (encoded > UINT32_MAX) {
    return Status::ParseError("columnar id out of range");
  }
  return static_cast<uint32_t>(encoded - 1);
}

// The bytes PutDictionary writes.
size_t DictionaryBytes(size_t count,
                       std::string_view (LogStore::*name)(uint32_t) const,
                       const LogStore& store) {
  size_t bytes = 0;
  for (size_t i = 0; i < count; ++i) {
    bytes += 8 + (store.*name)(static_cast<uint32_t>(i)).size();
  }
  return bytes;
}

void PutDictionary(SnapshotWriter* writer, size_t count,
                   std::string_view (LogStore::*name)(uint32_t) const,
                   const LogStore& store) {
  for (size_t i = 0; i < count; ++i) {
    writer->PutString((store.*name)(static_cast<uint32_t>(i)));
  }
}

// Sizes an output column to `n` elements, advising its buffer for huge
// pages before the first write. The decode writes ~71 bytes per record
// into fresh memory, and faulting that in 4 KiB pages cost more than
// the varint decode itself.
template <typename T>
void ResizeAdvised(std::vector<T>* column, size_t n) {
  column->reserve(n);
  AdviseHugePages(column->data(), n * sizeof(T));
  column->resize(n);
}

}  // namespace

bool LooksColumnar(std::string_view bytes) {
  return bytes.size() >= kContainerMagic.size() &&
         bytes.substr(0, kContainerMagic.size()) == kContainerMagic;
}

void AppendColumnarSections(const LogStore& store, SnapshotWriter* writer) {
  const size_t n = store.size();

  // The varint columns first, so the output's size is known and the
  // writer grows once; the message arena goes in as the text blob as
  // it is, since it is the concatenation of the messages in record
  // order.
  std::string times;
  times.reserve(n * 4);
  TimeMs prev_client = 0;
  for (size_t i = 0; i < n; ++i) {
    PutZigzag(&times, store.client_ts(i) - prev_client);
    PutZigzag(&times, store.server_ts(i) - store.client_ts(i));
    prev_client = store.client_ts(i);
  }
  std::string ids;
  ids.reserve(n * 4);
  for (size_t i = 0; i < n; ++i) {
    PutVarint(&ids, static_cast<uint64_t>(store.severity(i)));
    PutVarint(&ids, store.source_id(i));
    PutVarint(&ids, EncodeOptionalId(store.host_id(i)));
    PutVarint(&ids, EncodeOptionalId(store.user_id(i)));
  }
  std::string lengths;
  lengths.reserve(n);
  for (size_t i = 0; i < n; ++i) PutVarint(&lengths, store.message(i).size());
  const std::string_view blob = store.messages(0, n);

  // Five sections of a u32 name length, a name of at most five bytes
  // and a u64 payload length; every string its u64 length prefix.
  size_t bytes = 5 * (4 + 5 + 8) + 4 + 8 + 3 * 4;
  for (const std::string_view column : {std::string_view(times),
                                        std::string_view(ids),
                                        std::string_view(lengths), blob}) {
    bytes += 8 + column.size();
  }
  bytes += DictionaryBytes(store.num_sources(), &LogStore::source_name, store) +
           DictionaryBytes(store.num_hosts(), &LogStore::host_name, store) +
           DictionaryBytes(store.num_users(), &LogStore::user_name, store);
  writer->Reserve(bytes);

  writer->BeginSection("cmeta");
  writer->PutU32(kColumnarVersion);
  writer->PutU64(n);
  writer->PutU32(static_cast<uint32_t>(store.num_sources()));
  writer->PutU32(static_cast<uint32_t>(store.num_hosts()));
  writer->PutU32(static_cast<uint32_t>(store.num_users()));
  writer->EndSection();

  writer->BeginSection("ctime");
  writer->PutString(times);
  writer->EndSection();

  writer->BeginSection("cids");
  writer->PutString(ids);
  writer->EndSection();

  writer->BeginSection("cdict");
  PutDictionary(writer, store.num_sources(), &LogStore::source_name, store);
  PutDictionary(writer, store.num_hosts(), &LogStore::host_name, store);
  PutDictionary(writer, store.num_users(), &LogStore::user_name, store);
  writer->EndSection();

  writer->BeginSection("ctext");
  writer->PutString(lengths);
  writer->PutString(blob);
  writer->EndSection();
}

Result<LogStore> DecodeColumnarSections(const SnapshotReader& reader,
                                        const ColumnarReadOptions& options) {
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor meta, reader.Section("cmeta"));
  LOGMINE_ASSIGN_OR_RETURN(uint32_t version, meta.ReadU32());
  if (version != kColumnarVersion) {
    return Status::FailedPrecondition(
        "columnar corpus version " + std::to_string(version) +
        ", expected " + std::to_string(kColumnarVersion));
  }
  LOGMINE_ASSIGN_OR_RETURN(uint64_t n64, meta.ReadU64());
  LOGMINE_ASSIGN_OR_RETURN(uint32_t num_sources, meta.ReadU32());
  LOGMINE_ASSIGN_OR_RETURN(uint32_t num_hosts, meta.ReadU32());
  LOGMINE_ASSIGN_OR_RETURN(uint32_t num_users, meta.ReadU32());
  if (Status s = meta.ExpectEnd(); !s.ok()) return s;

  // Columns are views of the caller's bytes; only the message blob is
  // copied, once, into the store's arena.
  LOGMINE_ASSIGN_OR_RETURN(SectionCursor time_section,
                           reader.Section("ctime"));
  LOGMINE_ASSIGN_OR_RETURN(std::string_view time_column,
                           time_section.ReadBytes());
  if (Status s = time_section.ExpectEnd(); !s.ok()) return s;
  // Every record takes at least two varint bytes of the time column, so
  // a larger count is corruption — refused before it sizes a column.
  if (n64 > time_column.size() / 2) {
    return Status::ParseError("columnar record count " +
                              std::to_string(n64) +
                              " exceeds what the time column holds");
  }
  const auto n = static_cast<size_t>(n64);

  LogStore::Columns columns;
  ResizeAdvised(&columns.client_ts, n);
  ResizeAdvised(&columns.server_ts, n);
  const unsigned char* tp = ColumnBegin(time_column);
  const unsigned char* tend = tp + time_column.size();
  TimeMs prev_client = 0;
  for (size_t i = 0; i < n; ++i) {
    int64_t client_delta, server_delta;
    if (!GetZigzag(&tp, tend, &client_delta) ||
        !GetZigzag(&tp, tend, &server_delta)) {
      return Status::ParseError("columnar time column truncated");
    }
    const TimeMs client = prev_client + client_delta;
    columns.client_ts[i] = client;
    columns.server_ts[i] = client + server_delta;
    prev_client = client;
  }
  if (tp != tend) {
    return Status::ParseError("columnar time column has trailing bytes");
  }

  LOGMINE_ASSIGN_OR_RETURN(SectionCursor id_section, reader.Section("cids"));
  LOGMINE_ASSIGN_OR_RETURN(std::string_view id_column, id_section.ReadBytes());
  if (Status s = id_section.ExpectEnd(); !s.ok()) return s;
  ResizeAdvised(&columns.severity, n);
  ResizeAdvised(&columns.source_ids, n);
  ResizeAdvised(&columns.host_ids, n);
  ResizeAdvised(&columns.user_ids, n);
  const unsigned char* ip = ColumnBegin(id_column);
  const unsigned char* iend = ip + id_column.size();
  for (size_t i = 0; i < n; ++i) {
    uint64_t severity, source, host, user;
    if (!GetVarint(&ip, iend, &severity) || !GetVarint(&ip, iend, &source) ||
        !GetVarint(&ip, iend, &host) || !GetVarint(&ip, iend, &user)) {
      return Status::ParseError("columnar id column truncated");
    }
    if (severity > static_cast<uint64_t>(Severity::kError)) {
      return Status::ParseError("columnar severity out of range: " +
                                std::to_string(severity));
    }
    columns.severity[i] = static_cast<Severity>(severity);
    if (source > UINT32_MAX) {
      return Status::ParseError("columnar source id out of range");
    }
    columns.source_ids[i] = static_cast<uint32_t>(source);
    LOGMINE_ASSIGN_OR_RETURN(columns.host_ids[i], DecodeOptionalId(host));
    LOGMINE_ASSIGN_OR_RETURN(columns.user_ids[i], DecodeOptionalId(user));
  }
  if (ip != iend) {
    return Status::ParseError("columnar id column has trailing bytes");
  }

  LOGMINE_ASSIGN_OR_RETURN(SectionCursor dict_section,
                           reader.Section("cdict"));
  // Every name costs at least its 8-byte length prefix.
  if (uint64_t{num_sources} + num_hosts + num_users >
      dict_section.remaining() / 8) {
    return Status::ParseError(
        "columnar dictionary counts exceed what the dictionary holds");
  }
  for (auto [names, count] :
       {std::pair{&columns.source_names, num_sources},
        std::pair{&columns.host_names, num_hosts},
        std::pair{&columns.user_names, num_users}}) {
    names->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      LOGMINE_ASSIGN_OR_RETURN(std::string name, dict_section.ReadString());
      names->push_back(std::move(name));
    }
  }
  if (Status s = dict_section.ExpectEnd(); !s.ok()) return s;

  if (options.load_messages) {
    LOGMINE_ASSIGN_OR_RETURN(SectionCursor text_section,
                             reader.Section("ctext"));
    LOGMINE_ASSIGN_OR_RETURN(std::string_view lengths,
                             text_section.ReadBytes());
    LOGMINE_ASSIGN_OR_RETURN(std::string_view blob, text_section.ReadBytes());
    if (Status s = text_section.ExpectEnd(); !s.ok()) return s;
    // The lengths only turn into cumulative end offsets into the blob —
    // no per-message copy or allocation.
    const unsigned char* lp = ColumnBegin(lengths);
    const unsigned char* lend = lp + lengths.size();
    size_t blob_pos = 0;
    ResizeAdvised(&columns.message_ends, n);
    for (size_t i = 0; i < n; ++i) {
      uint64_t len;
      if (!GetVarint(&lp, lend, &len)) {
        return Status::ParseError("columnar text-length column truncated");
      }
      if (len > blob.size() - blob_pos) {
        return Status::ParseError("columnar text blob truncated");
      }
      blob_pos += static_cast<size_t>(len);
      columns.message_ends[i] = blob_pos;
    }
    if (lp != lend) {
      return Status::ParseError(
          "columnar text-length column has trailing bytes");
    }
    if (blob_pos != blob.size()) {
      return Status::ParseError("columnar text blob has trailing bytes");
    }
    columns.message_data.reserve(blob.size());
    AdviseHugePages(columns.message_data.data(), blob.size());
    columns.message_data.assign(blob);
  }

  auto store = LogStore::FromColumns(std::move(columns));
  if (!store.ok()) {
    // Shape defects past the CRC mean a logically inconsistent file
    // (hand-built or a writer bug) — surface them as corruption, the
    // same contract as every other defect here.
    return Status::ParseError("columnar corpus inconsistent: " +
                              store.status().message());
  }
  return store;
}

std::string EncodeColumnar(const LogStore& store) {
  SnapshotWriter writer;
  AppendColumnarSections(store, &writer);
  return std::move(writer).Finish();
}

Result<LogStore> DecodeColumnar(std::string_view bytes,
                                const ColumnarReadOptions& options) {
  LOGMINE_ASSIGN_OR_RETURN(SnapshotReader reader,
                           SnapshotReader::Parse(bytes));
  return DecodeColumnarSections(reader, options);
}

Status WriteColumnarFile(const std::string& path, const LogStore& store) {
  LOGMINE_SPAN_GLOBAL("ingest/columnar_write",
                      obs::Metric::kIngestColumnarWriteNs);
  const std::string bytes = EncodeColumnar(store);
  if (Status s = WriteFileAtomic(path, bytes); !s.ok()) return s;
  obs::Count(obs::Metric::kIngestColumnarWrites);
  return Status::OK();
}

Result<LogStore> ReadColumnarFile(const std::string& path,
                                  const ColumnarReadOptions& options) {
  LOGMINE_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  return ReadColumnarMapping(file, options);
}

Result<LogStore> ReadColumnarMapping(const MmapFile& file,
                                     const ColumnarReadOptions& options) {
  LOGMINE_SPAN_GLOBAL("ingest/columnar_read",
                      obs::Metric::kIngestColumnarReadNs);
  obs::Count(obs::Metric::kIngestColumnarReads);
  obs::Count(obs::Metric::kIngestColumnarBytesRead,
             static_cast<int64_t>(file.size()));
  return DecodeColumnar(file.view(), options);
}

}  // namespace logmine
