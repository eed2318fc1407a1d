#ifndef LOGMINE_LOG_NAME_INTERNER_H_
#define LOGMINE_LOG_NAME_INTERNER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace logmine {

/// A dictionary of names with dense ids handed out in first-seen order:
/// the one interner behind LogStore's source, host and user columns,
/// the text codec's chunk decode and merge, and the streaming window's
/// name tables. Lookups hash the caller's view as is; a name is copied
/// only the first time it is seen.
class NameInterner {
 public:
  /// The id of `name`, handing out the next id when it is new.
  uint32_t Intern(std::string_view name) {
    if (auto it = ids_.find(name); it != ids_.end()) return it->second;
    const auto id = static_cast<uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(name, id);
    return id;
  }

  /// The id of `name`, or nullopt when it was never interned.
  std::optional<uint32_t> Find(std::string_view name) const {
    auto it = ids_.find(name);
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }

  size_t size() const { return names_.size(); }
  const std::string& name(uint32_t id) const { return names_[id]; }
  /// Every name, in id order.
  const std::vector<std::string>& names() const { return names_; }
  /// Moves the names out in id order, leaving the interner empty.
  std::vector<std::string> TakeNames() {
    ids_.clear();
    return std::exchange(names_, {});
  }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>> ids_;
};

/// Maps the ids of one dictionary onto a `NameInterner` through one
/// table entry per dictionary entry, filled on first use: names new to
/// the target get its next ids in the order the caller first maps them.
class IdRemap {
 public:
  IdRemap(size_t dictionary_size, NameInterner* target)
      : table_(dictionary_size, kUnmapped), target_(target) {}

  /// The target's id for entry `id`, whose name is `name`.
  uint32_t Map(uint32_t id, std::string_view name) {
    uint32_t& mapped = table_[id];
    if (mapped == kUnmapped) mapped = target_->Intern(name);
    return mapped;
  }

 private:
  static constexpr uint32_t kUnmapped = UINT32_MAX;
  std::vector<uint32_t> table_;
  NameInterner* target_;
};

}  // namespace logmine

#endif  // LOGMINE_LOG_NAME_INTERNER_H_
