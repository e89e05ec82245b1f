// What the POSIX face needs from the metadata cluster when a local lookup
// misses: resolve a path from its shard owners, know who those owners are
// (write-meta replication targets), and union directory listings across
// serving ranks. ClusterNode implements this; FanStoreFs consumes it
// through a pointer so core never depends on the cluster service's wire
// details.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cluster/shard_store.hpp"
#include "posixfs/vfs.hpp"

namespace fanstore::cluster {

class MetaResolver {
 public:
  virtual ~MetaResolver() = default;

  /// Metadata lookup after a local miss: current shard owners first,
  /// previous-ring owners mid-rebalance, then any serving rank (directory
  /// synthesis). ClusterNode answers repeats of dataset files from its
  /// LookupCache, and every lookup from the local store when this rank
  /// owns every shard.
  virtual std::optional<VersionedStat> resolve(const std::string& path) = 0;

  /// The ranks that must hold `path`'s metadata (write replication set).
  virtual std::vector<int> meta_owners(const std::string& path) = 0;

  /// Union of list_local(dir) across serving ranks (deduplicated).
  virtual std::vector<posixfs::Dirent> list_union(const std::string& dir) = 0;
  virtual bool dir_exists_union(const std::string& dir) = 0;
};

}  // namespace fanstore::cluster
