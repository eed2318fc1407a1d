#include "core/l3_text_miner.h"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "log/filter.h"
#include "obs/obs.h"
#include "util/executor.h"
#include "util/flat_counter.h"
#include "util/string_util.h"

namespace logmine::core {
namespace {

// Logs per scanning shard: message scanning is cheap per log, so use
// coarse chunks to keep scheduling overhead negligible.
constexpr size_t kLogsPerShard = 4096;

uint64_t CitationKey(uint32_t app, size_t entry) {
  return (static_cast<uint64_t>(app) << 32) |
         static_cast<uint64_t>(entry & 0xffffffffu);
}

// The identifier alphabet of TokenizeIdentifiers, inlined so the scan
// below needs no per-message vector of token views.
bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

char LowerChar(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

// FNV-1a over the lower-cased bytes of [p, p + len) — the hash of the
// token as it would look after lower-casing, computed without writing
// the lower-cased copy anywhere.
uint64_t HashLowered(const char* p, size_t len) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(LowerChar(p[i]));
    h *= 1099511628211ULL;
  }
  return h;
}

#if defined(__SSE2__)
// Byte-lane mask of the bytes of `v` inside [lo, hi]: wrapping subtract
// shifts the range to start at zero, then the saturating subtract is
// zero exactly for in-range lanes (out-of-range lanes, including those
// that wrapped below `lo`, stay positive).
inline __m128i InRange(__m128i v, char lo, char hi) {
  const __m128i shifted = _mm_sub_epi8(v, _mm_set1_epi8(lo));
  const __m128i excess =
      _mm_subs_epu8(shifted, _mm_set1_epi8(static_cast<char>(hi - lo)));
  return _mm_cmpeq_epi8(excess, _mm_setzero_si128());
}

// Byte-lane mask of the identifier alphabet [A-Za-z0-9_]; OR-ing 0x20
// folds upper case onto lower case and maps nothing else into [a-z].
inline __m128i IdentLanes(__m128i v) {
  const __m128i folded = _mm_or_si128(v, _mm_set1_epi8(0x20));
  __m128i ident = InRange(folded, 'a', 'z');
  ident = _mm_or_si128(ident, InRange(v, '0', '9'));
  return _mm_or_si128(ident, _mm_cmpeq_epi8(v, _mm_set1_epi8('_')));
}
#endif

}  // namespace

std::vector<std::string> DefaultStopPatterns() {
  // One pattern per known provider-side log family, plus a few defensive
  // entries; ten patterns, as deployed at HUG.
  return {
      "Received call *",
      "*incoming request*",
      "handling fct *",
      "serve *<-*",
      "*dispatched to worker*",
      "*ping from*",
      "*registration renewed*",
      "ACK *",
      "*keepalive*",
      "*subscribed listener*",
  };
}

L3TextMiner::L3TextMiner(ServiceVocabulary vocabulary, L3Config config)
    : vocabulary_(std::move(vocabulary)),
      config_(std::move(config)),
      stop_matcher_(config_.stop_patterns) {
  token_index_.reserve(vocabulary_.entries.size());
  for (size_t i = 0; i < vocabulary_.entries.size(); ++i) {
    token_index_.emplace_back(ToLower(vocabulary_.entries[i].id), i);
  }
  std::sort(token_index_.begin(), token_index_.end());
  for (const auto& [id, index] : token_index_) {
    if (id.empty() || id.size() >= 64) continue;  // tokens never match
    token_length_masks_[static_cast<unsigned char>(id.front())] |=
        uint64_t{1} << id.size();
  }
  const size_t bucket_count = std::bit_ceil(token_index_.size() * 4 + 4);
  token_buckets_.assign(bucket_count, 0);
  token_bucket_mask_ = static_cast<uint32_t>(bucket_count - 1);
  for (uint32_t i = 0; i < token_index_.size(); ++i) {
    const std::string& key = token_index_[i].first;  // already lower-cased
    size_t b = HashLowered(key.data(), key.size()) & token_bucket_mask_;
    bool duplicate = false;
    while (token_buckets_[b] != 0) {
      if (token_index_[token_buckets_[b] - 1].first == key) {
        duplicate = true;  // first entry in sort order wins
        break;
      }
      b = (b + 1) & token_bucket_mask_;
    }
    if (!duplicate) token_buckets_[b] = i + 1;
  }
#if defined(__SSE2__)
  fused_scan_ok_ = stop_matcher_.infix_needles().size() <= kMaxProbes;
  if (fused_scan_ok_) {
    for (const std::string& needle : stop_matcher_.infix_needles()) {
      NeedleProbe probe;
      probe.first = needle.front();  // needles are never empty
      if (needle.size() >= 2) {
        probe.second = needle[1];
        probe.has_second = true;
      }
      probes_.push_back(probe);
    }
  }
#endif
}

bool L3TextMiner::IsStopped(std::string_view message) const {
  if (!config_.use_stop_patterns) return false;
  return stop_matcher_.MatchesAny(message);
}

void L3TextMiner::AppendCitedEntries(std::string_view message,
                                     std::string* lower_scratch,
                                     std::vector<size_t>* out) const {
  const size_t n = message.size();
  size_t i = 0;
  while (i < n) {
    if (!IsIdentChar(message[i])) {
      ++i;
      continue;
    }
    const size_t begin = i;
    while (i < n && IsIdentChar(message[i])) ++i;
    const size_t len = i - begin;
    // No id shares this token's first byte and length — which is true
    // of almost every token — so skip it without lower-casing.
    const auto first = static_cast<unsigned char>(LowerChar(message[begin]));
    if (len >= 64 || ((token_length_masks_[first] >> len) & 1) == 0) {
      continue;
    }
    lower_scratch->assign(message.substr(begin, len));
    for (char& c : *lower_scratch) c = LowerChar(c);
    auto it = std::lower_bound(
        token_index_.begin(), token_index_.end(), *lower_scratch,
        [](const auto& entry, const std::string& key) {
          return entry.first < key;
        });
    if (it != token_index_.end() && it->first == *lower_scratch) {
      out->push_back(it->second);
    }
  }
}

bool L3TextMiner::FusedScan(std::string_view message, ScanScratch* scratch,
                            std::vector<size_t>* out) const {
#if !defined(__SSE2__)
  (void)message;
  (void)scratch;
  (void)out;
  return false;  // unreachable: fused_scan_ok() is false without SSE2
#else
  const bool stop_active =
      config_.use_stop_patterns && stop_matcher_.size() > 0;
  if (stop_active && stop_matcher_.MatchesAnyNonInfix(message)) return true;
  const size_t n = message.size();
  if (n == 0) return false;
  const size_t words = (n + 63) / 64;
  // Copy and NUL-pad the message so every 16-byte load below — including
  // the one-byte-ahead load the pair probes use — stays in bounds. NUL
  // is not an identifier char, so the padding also terminates the last
  // identifier run for free; a probe byte of NUL could raise spurious
  // candidates past the end, which the `pos < n` filter drops. Typical
  // messages (a few dozen bytes) stay entirely on the stack — the
  // per-message cost is what dominates this scan, not the bytes.
  constexpr size_t kStackWords = 8;  // up to 512-byte messages
  alignas(16) char stack_buf[kStackWords * 64 + 16];
  uint64_t stack_ident[kStackWords];
  uint64_t stack_cand[kStackWords];
  const char* data;
  uint64_t* ident_words;
  uint64_t* cand_words;
  if (words <= kStackWords) {
    std::memcpy(stack_buf, message.data(), n);
    std::memset(stack_buf + n, 0, words * 64 + 16 - n);
    data = stack_buf;
    ident_words = stack_ident;
    cand_words = stack_cand;
  } else {
    std::string& padded = scratch->padded;
    padded.assign(message);
    padded.append(words * 64 + 16 - n, '\0');
    scratch->ident.resize(words);
    scratch->cand.resize(words);
    data = padded.data();
    ident_words = scratch->ident.data();
    cand_words = scratch->cand.data();
  }

  const bool scan_needles = stop_active && !probes_.empty();
  __m128i probe_first[kMaxProbes];
  __m128i probe_second[kMaxProbes];
  bool probe_pair[kMaxProbes];
  const size_t num_probes = scan_needles ? probes_.size() : 0;
  for (size_t p = 0; p < num_probes; ++p) {
    probe_first[p] = _mm_set1_epi8(probes_[p].first);
    probe_second[p] = _mm_set1_epi8(probes_[p].second);
    probe_pair[p] = probes_[p].has_second;
  }

  // One SIMD sweep builds both bitmasks, 16 bytes per step: bit i of
  // `ident` marks an identifier byte, bit i of `cand` a position where
  // some needle's first two bytes match — the only positions the (much
  // slower) full needle comparison ever runs at. Quarters past the end
  // of the message hold only padding, so they are skipped outright.
  for (size_t w = 0; w < words; ++w) {
    uint64_t ident = 0;
    uint64_t cand = 0;
    for (size_t q = 0; q < 4; ++q) {
      const size_t off = w * 64 + q * 16;
      if (off >= n) break;  // padding only: contributes no bits
      const __m128i v = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(data + off));
      ident |= static_cast<uint64_t>(
                   static_cast<uint32_t>(_mm_movemask_epi8(IdentLanes(v))))
               << (q * 16);
      if (scan_needles) {
        const __m128i v1 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(data + off + 1));
        __m128i hits = _mm_setzero_si128();
        for (size_t p = 0; p < num_probes; ++p) {
          __m128i hit = _mm_cmpeq_epi8(v, probe_first[p]);
          if (probe_pair[p]) {
            hit = _mm_and_si128(hit, _mm_cmpeq_epi8(v1, probe_second[p]));
          }
          hits = _mm_or_si128(hits, hit);
        }
        cand |= static_cast<uint64_t>(
                    static_cast<uint32_t>(_mm_movemask_epi8(hits)))
                << (q * 16);
      }
    }
    ident_words[w] = ident;
    cand_words[w] = cand;
  }

  if (scan_needles) {
    for (size_t w = 0; w < words; ++w) {
      uint64_t m = cand_words[w];
      while (m != 0) {
        const size_t pos =
            w * 64 + static_cast<size_t>(std::countr_zero(m));
        m &= m - 1;
        if (pos < n && stop_matcher_.InfixMatchesAt(message, pos)) {
          return true;
        }
      }
    }
  }

  auto handle_token = [&](size_t begin, size_t len) {
    const auto first =
        static_cast<unsigned char>(LowerChar(message[begin]));
    if (len >= 64 || ((token_length_masks_[first] >> len) & 1) == 0) {
      return;
    }
    // Hash probe with on-the-fly lower-casing: no copy of the token is
    // ever written, and 47-entry vocabularies resolve in ~1 probe.
    const char* tok = message.data() + begin;
    size_t b = HashLowered(tok, len) & token_bucket_mask_;
    while (true) {
      const uint32_t slot = token_buckets_[b];
      if (slot == 0) return;  // not in the vocabulary
      const auto& [key, index] = token_index_[slot - 1];
      if (key.size() == len) {
        size_t k = 0;
        while (k < len && key[k] == LowerChar(tok[k])) ++k;
        if (k == len) {
          // Dedup at push time (out holds this message's few entries),
          // so the caller needs no sort+unique pass per message.
          for (size_t seen : *out) {
            if (seen == index) return;
          }
          out->push_back(index);
          return;
        }
      }
      b = (b + 1) & token_bucket_mask_;
    }
  };

  if (words == 1) {
    // The common case: every identifier run sits inside one word (bits
    // at or past n are zero), so runs pop straight out of two counts.
    uint64_t m = ident_words[0];
    while (m != 0) {
      const int begin = std::countr_zero(m);
      const uint64_t from_begin = m >> begin;
      const int len = std::countr_one(from_begin);
      handle_token(static_cast<size_t>(begin), static_cast<size_t>(len));
      if (begin + len >= 64) break;
      m &= (~uint64_t{0}) << (begin + len);
    }
    return false;
  }

  // Long messages: walk the identifier runs across words; `next` finds
  // the first set (or clear) bit at or after `from`, clamped to n.
  auto next = [&](size_t from, bool want_set) -> size_t {
    size_t w = from >> 6;
    if (w >= words) return n;
    uint64_t m = want_set ? ident_words[w] : ~ident_words[w];
    m &= (~uint64_t{0}) << (from & 63);
    while (m == 0) {
      if (++w == words) return n;
      m = want_set ? ident_words[w] : ~ident_words[w];
    }
    const size_t pos =
        (w << 6) + static_cast<size_t>(std::countr_zero(m));
    return pos < n ? pos : n;
  };
  size_t i = next(0, true);
  while (i < n) {
    const size_t end = next(i + 1, false);
    handle_token(i, end - i);
    i = next(end, true);
  }
  return false;
#endif
}

std::vector<size_t> L3TextMiner::CitedEntries(std::string_view message) const {
  std::vector<size_t> cited;
  std::string scratch;
  AppendCitedEntries(message, &scratch, &cited);
  std::sort(cited.begin(), cited.end());
  cited.erase(std::unique(cited.begin(), cited.end()), cited.end());
  return cited;
}

Result<L3Result> L3TextMiner::Mine(const LogStore& store, TimeMs begin,
                                   TimeMs end) const {
  if (!store.index_built()) {
    return Status::FailedPrecondition("LogStore index not built");
  }
  if (vocabulary_.entries.empty()) {
    return Status::FailedPrecondition("empty service vocabulary");
  }
  LOGMINE_SPAN_GLOBAL("l3/mine", obs::Metric::kL3MineNs);
  obs::Count(obs::Metric::kL3Runs);
  L3Result result;
  const RecordRange records = IndicesInRange(store, begin, end);

  // Sharded scan on the shared executor: each shard counts citations
  // into its own flat table; shard boundaries depend only on the log
  // count and counting is additive, so the merged result is identical
  // for any thread count.
  struct ShardCounts {
    FlatCounter citations{64};
    int64_t scanned = 0;
    int64_t stopped = 0;
  };
  const size_t num_shards =
      (records.size() + kLogsPerShard - 1) / kLogsPerShard;
  std::vector<ShardCounts> shards(num_shards);
  Executor::Shared().ParallelForChunks(
      records.size(), kLogsPerShard,
      [&](size_t shard_begin, size_t shard_end) {
        ShardCounts& shard = shards[shard_begin / kLogsPerShard];
        ScanScratch scratch;
        std::vector<size_t> cited;
        const bool fused = fused_scan_ok();
        for (size_t i = shard_begin; i < shard_end; ++i) {
          const size_t idx = records.first + i;
          ++shard.scanned;
          const std::string_view message = store.message(idx);
          cited.clear();
          if (fused) {
            if (FusedScan(message, &scratch, &cited)) {
              ++shard.stopped;
              continue;
            }
          } else {
            if (IsStopped(message)) {
              ++shard.stopped;
              continue;
            }
            AppendCitedEntries(message, &scratch.lower, &cited);
            // FusedScan dedups at push time; this path dedups here.
            std::sort(cited.begin(), cited.end());
            cited.erase(std::unique(cited.begin(), cited.end()),
                        cited.end());
          }
          for (size_t entry : cited) {
            shard.citations.Add(CitationKey(store.source_id(idx), entry), 1);
          }
        }
      },
      config_.num_threads);

  FlatCounter counts(64);
  for (const ShardCounts& shard : shards) {
    result.logs_scanned += shard.scanned;
    result.logs_stopped += shard.stopped;
    counts.MergeFrom(shard.citations);
  }

  const std::vector<std::pair<uint64_t, int64_t>> entries =
      counts.SortedEntries();  // ascending (app, entry) — the map order
  result.citations.reserve(entries.size());
  for (const auto& [key, count] : entries) {
    L3Citation citation;
    citation.app = static_cast<uint32_t>(key >> 32);
    citation.entry = static_cast<size_t>(key & 0xffffffffu);
    citation.count = count;
    citation.dependent = count >= config_.min_citations;
    result.citations.push_back(citation);
  }
  obs::Count(obs::Metric::kL3LogsScanned, result.logs_scanned);
  obs::Count(obs::Metric::kL3LogsStopped, result.logs_stopped);
  int64_t total_citations = 0;
  for (const L3Citation& citation : result.citations) {
    total_citations += citation.count;
  }
  obs::Count(obs::Metric::kL3CitationsCounted, total_citations);
  return result;
}

DependencyModel L3Result::Dependencies(
    const LogStore& store, const ServiceVocabulary& vocabulary) const {
  DependencyModel model;
  for (const L3Citation& citation : citations) {
    if (citation.dependent) {
      model.Insert({std::string(store.source_name(citation.app)),
                    vocabulary.entries[citation.entry].id});
    }
  }
  return model;
}

}  // namespace logmine::core
