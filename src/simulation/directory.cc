#include "simulation/directory.h"

#include "util/string_util.h"

namespace logmine::sim {

Status ServiceDirectory::Add(ServiceEntry entry) {
  if (entry.id.empty()) {
    return Status::InvalidArgument("service entry with empty id");
  }
  if (FindById(entry.id).ok()) {
    return Status::AlreadyExists("duplicate service entry: " + entry.id);
  }
  entries_.push_back(std::move(entry));
  return Status::OK();
}

Result<size_t> ServiceDirectory::FindById(std::string_view id) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (EqualsIgnoreCase(entries_[i].id, id)) return i;
  }
  return Status::NotFound("no service entry: " + std::string(id));
}

std::string ServiceDirectory::ToXml() const {
  std::string out = "<directory>\n";
  for (const ServiceEntry& e : entries_) {
    out += "  <group id=\"" + e.id + "\" url=\"" + e.root_url +
           "\" server=\"" + e.server_host + "\" replicas=\"" +
           std::to_string(e.num_replicas) + "\"/>\n";
  }
  out += "</directory>\n";
  return out;
}

}  // namespace logmine::sim
