#include "log/corpus_io.h"

#include <string_view>

#include "log/codec.h"
#include "log/columnar.h"
#include "util/mmap_file.h"
#include "util/snapshot.h"

namespace logmine {

Status WriteCorpusFile(const LogStore& store, const std::string& path) {
  std::string out;
  auto write_record = [&out, &store](size_t i) {
    out += LineCodec::Encode(store.GetRecord(i));
    out += '\n';
  };
  if (store.index_built()) {
    for (uint32_t idx : store.TimeOrder()) write_record(idx);
  } else {
    for (size_t i = 0; i < store.size(); ++i) write_record(i);
  }
  return WriteFileAtomic(path, out);
}

Result<LogStore> ReadCorpusFile(const std::string& path) {
  return ReadCorpusFile(path, DecodeOptions{}, nullptr);
}

Result<LogStore> ReadCorpusFile(const std::string& path,
                                const DecodeOptions& options,
                                IngestStats* stats) {
  LOGMINE_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  const std::string_view text = file.view();
  if (LooksColumnar(text)) {
    LOGMINE_ASSIGN_OR_RETURN(LogStore store, ReadColumnarFile(path));
    store.BuildIndex();
    return store;
  }
  // Files are where a writer can die mid-line (foreign corpora, live
  // tails); tolerate exactly that and nothing more. In-memory decodes
  // via DecodeAll keep the strict default.
  DecodeOptions file_options = options;
  file_options.lenient_truncated_tail = true;
  LOGMINE_ASSIGN_OR_RETURN(LogStore store,
                           LineCodec::DecodeAll(text, file_options, stats));
  store.BuildIndex();
  return store;
}

}  // namespace logmine
