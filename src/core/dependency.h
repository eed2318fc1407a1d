#ifndef LOGMINE_CORE_DEPENDENCY_H_
#define LOGMINE_CORE_DEPENDENCY_H_

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace logmine::core {

/// A pair of component names. For L1/L2 the pair is *unordered*
/// (normalize with `MakeUnorderedPair`); for L3 it is the ordered
/// (application, service entry) dependency.
using NamePair = std::pair<std::string, std::string>;

/// Normalizes an application pair so that first <= second.
NamePair MakeUnorderedPair(std::string_view a, std::string_view b);

/// A discovered (or reference) dependency model: a set of name pairs.
/// Whether pairs are ordered is a property of the producing technique.
class DependencyModel {
 public:
  DependencyModel() = default;
  explicit DependencyModel(std::set<NamePair> pairs)
      : pairs_(std::move(pairs)) {}

  void Insert(NamePair pair) { pairs_.insert(std::move(pair)); }
  bool Contains(const NamePair& pair) const { return pairs_.count(pair) > 0; }
  size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }
  const std::set<NamePair>& pairs() const { return pairs_; }

  /// Pairs present here but not in `other`.
  std::vector<NamePair> Minus(const DependencyModel& other) const;

  /// Set union (used to combine per-day models, §4.8).
  DependencyModel Union(const DependencyModel& other) const;

  /// Renders "a -- b" lines, sorted; for debugging and examples.
  std::string ToString() const;

  /// Graphviz DOT rendering (undirected when `directed` is false).
  std::string ToDot(std::string_view graph_name, bool directed) const;

 private:
  std::set<NamePair> pairs_;
};

}  // namespace logmine::core

#endif  // LOGMINE_CORE_DEPENDENCY_H_
