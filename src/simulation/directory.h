#ifndef LOGMINE_SIMULATION_DIRECTORY_H_
#define LOGMINE_SIMULATION_DIRECTORY_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace logmine::sim {

/// One entry of the service directory: a group of functionally related
/// services, identified by an uppercase id and a root URL — the structure
/// the paper describes for HUG ("an XML file indicating the root URL of
/// groups of functionally related services. All service groups have an
/// identifier, as well as information related to replication issues").
struct ServiceEntry {
  std::string id;        ///< e.g. "DPINOTIFICATION"
  std::string root_url;  ///< e.g. "http://srv-notif.hug.ch:9980/dpinotification"
  std::string server_host;
  int num_replicas = 1;
};

/// The service directory consumed by the L3 miner (and serialized by the
/// simulator in the same XML-ish shape HUG uses).
class ServiceDirectory {
 public:
  ServiceDirectory() = default;

  /// Adds an entry; fails on duplicate id (ids are case-insensitive keys).
  Status Add(ServiceEntry entry);

  size_t size() const { return entries_.size(); }
  const std::vector<ServiceEntry>& entries() const { return entries_; }
  const ServiceEntry& entry(size_t i) const { return entries_[i]; }

  /// Index of the entry with the given id (case-insensitive), or NotFound.
  Result<size_t> FindById(std::string_view id) const;

  /// Serializes to the simple XML format:
  ///   <directory>
  ///     <group id="..." url="..." server="..." replicas="N"/>
  ///   </directory>
  std::string ToXml() const;

 private:
  std::vector<ServiceEntry> entries_;
};

}  // namespace logmine::sim

#endif  // LOGMINE_SIMULATION_DIRECTORY_H_
