#include "core/dependency.h"

#include <algorithm>

namespace logmine::core {

NamePair MakeUnorderedPair(std::string_view a, std::string_view b) {
  if (b < a) std::swap(a, b);
  return {std::string(a), std::string(b)};
}

std::vector<NamePair> DependencyModel::Minus(
    const DependencyModel& other) const {
  std::vector<NamePair> out;
  for (const NamePair& p : pairs_) {
    if (!other.Contains(p)) out.push_back(p);
  }
  return out;
}

DependencyModel DependencyModel::Union(const DependencyModel& other) const {
  DependencyModel out(pairs_);
  for (const NamePair& p : other.pairs_) out.Insert(p);
  return out;
}

std::string DependencyModel::ToString() const {
  std::string out;
  for (const NamePair& p : pairs_) {
    out += p.first;
    out += " -- ";
    out += p.second;
    out += '\n';
  }
  return out;
}

std::string DependencyModel::ToDot(std::string_view graph_name,
                                   bool directed) const {
  std::string out = directed ? "digraph " : "graph ";
  out += graph_name;
  out += " {\n";
  const char* arrow = directed ? " -> " : " -- ";
  for (const NamePair& p : pairs_) {
    out += "  \"" + p.first + "\"" + arrow + "\"" + p.second + "\";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace logmine::core
