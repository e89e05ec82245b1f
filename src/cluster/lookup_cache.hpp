// LookupCache: ClusterNode::resolve's bounded, positive-only memo of remote
// metadata answers (DESIGN.md §13 "Lookup cache"). resolve() serves
// repeats of dataset lookups from it instead of an RPC, so the
// paper's stat() storm (§II-B1) stays in RAM under sharded metadata.
//
// It holds only regular files from the dataset load (version 0): the
// namespace is write-once, so such an entry never gets a successor.
// Directories (they gain children), written files (version >= 1, still
// racing under last-writer-wins) and negative answers (a write-open's
// EEXIST check must see new files) always go to the wire. Every ring
// rebuild calls invalidate(), and an insert carries the epoch its find()
// miss saw, so an answer in flight across a rebuild is dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>

#include "cluster/shard_store.hpp"
#include "util/sync.hpp"

namespace fanstore::cluster {

/// ClusterNode's entry bound. An entry with a 24-byte path costs ~270 B
/// (hash node with a 96-byte VersionedStat, the path in the map and the
/// FIFO), so a full cache stays near 17 MiB per rank.
constexpr std::size_t kLookupCacheEntries = std::size_t{1} << 16;

class LookupCache {
 public:
  explicit LookupCache(std::size_t max_entries) : max_entries_(max_entries) {}

  LookupCache(const LookupCache&) = delete;
  LookupCache& operator=(const LookupCache&) = delete;

  /// True for the answers the cache may hold: version-0 regular files.
  static bool cacheable(const VersionedStat& vs) {
    return vs.version == 0 && vs.stat.type == format::FileType::kRegular;
  }

  /// The cached answer for `path`. On a miss, `*epoch` receives the epoch
  /// an insert of this path's answer must carry.
  std::optional<VersionedStat> find(const std::string& path,
                                    std::uint64_t* epoch) const EXCLUDES(mu_);

  /// Keeps `vs` when it is cacheable and no invalidate() ran since the
  /// find() that reported `epoch`; evicts the oldest entry at the bound.
  void insert(const std::string& path, const VersionedStat& vs,
              std::uint64_t epoch) EXCLUDES(mu_);

  /// Drops every entry and starts a new epoch.
  void invalidate() EXCLUDES(mu_);

 private:
  const std::size_t max_entries_;
  // Leaf lock: never held across an RPC or while taking another lock.
  mutable sync::Mutex mu_{"cluster.lookup_cache.mu"};
  std::unordered_map<std::string, VersionedStat> entries_ GUARDED_BY(mu_);
  std::deque<std::string> fifo_ GUARDED_BY(mu_);  // insertion order, oldest first
  std::uint64_t epoch_ GUARDED_BY(mu_) = 0;
};

}  // namespace fanstore::cluster
