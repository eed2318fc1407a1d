#include "log/slct.h"

#include <algorithm>
#include <map>

#include "log/filter.h"

namespace logmine {
namespace {

std::vector<std::string_view> WhitespaceWords(std::string_view message,
                                              size_t max_words) {
  std::vector<std::string_view> words;
  size_t i = 0;
  while (i < message.size() && words.size() < max_words) {
    while (i < message.size() && message[i] == ' ') ++i;
    size_t begin = i;
    while (i < message.size() && message[i] != ' ') ++i;
    if (i > begin) words.push_back(message.substr(begin, i - begin));
  }
  return words;
}

}  // namespace

std::string LogTemplate::ToString() const {
  std::string out;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) out += ' ';
    out += tokens[i];
  }
  return out;
}

SlctResult SlctClusterer::Cluster(
    const std::vector<std::string_view>& messages) const {
  SlctResult result;
  result.messages = static_cast<int64_t>(messages.size());

  // Pass 1: frequencies of (position, word).
  std::map<std::pair<size_t, std::string_view>, int64_t> word_counts;
  for (std::string_view message : messages) {
    const auto words = WhitespaceWords(message, config_.max_words);
    for (size_t pos = 0; pos < words.size(); ++pos) {
      ++word_counts[{pos, words[pos]}];
    }
  }

  // Pass 2: cluster candidates. The candidate key fixes the frequent
  // (position, word) pairs and the word count; infrequent positions are
  // wildcards.
  std::map<std::string, std::pair<int64_t, LogTemplate>> candidates;
  for (std::string_view message : messages) {
    const auto words = WhitespaceWords(message, config_.max_words);
    if (words.empty()) continue;
    LogTemplate tmpl;
    tmpl.tokens.reserve(words.size());
    bool any_frequent = false;
    for (size_t pos = 0; pos < words.size(); ++pos) {
      if (word_counts[{pos, words[pos]}] >= config_.support) {
        tmpl.tokens.emplace_back(words[pos]);
        any_frequent = true;
      } else {
        tmpl.tokens.emplace_back("*");
      }
    }
    if (!any_frequent) continue;  // pure-wildcard candidates are noise
    auto [it, inserted] =
        candidates.try_emplace(tmpl.ToString(), 0, std::move(tmpl));
    ++it->second.first;
  }

  int64_t clustered = 0;
  for (auto& [key, entry] : candidates) {
    if (entry.first >= config_.support) {
      entry.second.count = entry.first;
      clustered += entry.first;
      result.templates.push_back(std::move(entry.second));
    }
  }
  std::sort(result.templates.begin(), result.templates.end(),
            [](const LogTemplate& a, const LogTemplate& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.tokens < b.tokens;
            });
  result.outliers = result.messages - clustered;
  return result;
}

SlctResult SlctClusterer::ClusterSource(const LogStore& store,
                                        LogStore::SourceId source,
                                        TimeMs begin, TimeMs end) const {
  std::vector<std::string_view> messages;
  for (size_t idx : IndicesInRange(store, begin, end)) {
    if (store.source_id(idx) == source) {
      messages.push_back(store.message(idx));
    }
  }
  return Cluster(messages);
}

}  // namespace logmine
