#include "log/corpus_io.h"

#include <string_view>

#include "log/codec.h"
#include "log/columnar.h"
#include "util/mmap_file.h"
#include "util/snapshot.h"

namespace logmine {

Status WriteCorpusFile(const LogStore& store, const std::string& path) {
  std::string out;
  for (size_t i = 0; i < store.size(); ++i) {
    out += LineCodec::Encode(store.GetRecord(i));
    out += '\n';
  }
  return WriteFileAtomic(path, out);
}

Result<LogStore> ReadCorpusFile(const std::string& path) {
  return ReadCorpusFile(path, DecodeOptions{}, nullptr);
}

Result<LogStore> ReadCorpusFile(const std::string& path,
                                const DecodeOptions& options,
                                IngestStats* stats) {
  Result<LogStore> store = [&]() -> Result<LogStore> {
    LOGMINE_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
    if (LooksColumnar(file.view())) return ReadColumnarMapping(file);
    // Files are where a writer can die mid-line (foreign corpora, live
    // tails); tolerate exactly that and nothing more. In-memory decodes
    // via DecodeAll keep the strict default.
    DecodeOptions file_options = options;
    file_options.lenient_truncated_tail = true;
    return LineCodec::DecodeAll(file.view(), file_options, stats);
  }();
  // The file is unmapped by now, so its pages are not resident beside
  // the index build's scratch buffers.
  if (store.ok()) store.value().BuildIndex();
  return store;
}

}  // namespace logmine
