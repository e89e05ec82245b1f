// In-RAM metadata store (§IV-C1): the per-rank shard-local namespace,
// owned by the rank's ClusterNode (cluster/node.hpp, DESIGN.md §13). The
// node fills it with the shards the hash ring assigns this rank (plus
// entries it authored); under full replication, the default, that is every
// shard, so every node holds the complete namespace, as in the paper.
// Misses of shards owned elsewhere resolve against their owners. Either
// way the metadata storms of §II-B1 (millions of stat() calls from dozens
// of I/O threads) are answered from RAM, not the PFS.
//
// The namespace is partitioned into shards by stable path hash
// (shard_of). Entries carry a (version, writer) pair with a deterministic
// last-writer-wins merge so replicas converge without owner forwarding,
// and each shard exposes an order-independent digest so anti-entropy can
// tell "identical" from "pull me" without moving bytes. Internally
// synchronized: the cluster service thread, the daemon and application
// threads call concurrently.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/shard_store.hpp"
#include "format/file_stat.hpp"
#include "posixfs/vfs.hpp"
#include "util/bytes.hpp"
#include "util/sync.hpp"

namespace fanstore::cluster {

/// The longest path the metadata wire forms can carry, in bytes: shard
/// blobs and the daemon's write-meta message store path lengths as u16.
/// FanStoreFs refuses to create a longer path (ENAMETOOLONG).
constexpr std::size_t kMaxPathBytes = 65535;

class MetadataStore {
 public:
  /// Inserts or replaces the entry for `path` (normalized, dataset-rooted)
  /// unconditionally at version 0 — the load-time path (partition
  /// manifests). Parent directories become visible automatically.
  void insert(const std::string& path, const format::FileStat& stat) EXCLUDES(mu_);

  /// Applies `entry` iff it wins over (or first-inserts) the current entry
  /// for `path`. Returns true when the store changed.
  bool insert_versioned(const std::string& path, const VersionedStat& entry)
      EXCLUDES(mu_);

  /// The stat of a file, or a synthesized directory stat — what a remote
  /// metadata query serves.
  std::optional<format::FileStat> lookup(const std::string& path) const EXCLUDES(mu_);

  /// The versioned entry for a *file* path (directories are synthesized,
  /// not stored, and have no version).
  std::optional<VersionedStat> lookup_versioned(const std::string& path) const
      EXCLUDES(mu_);

  /// Whether `path` is a directory known locally ("" always is).
  bool dir_exists(const std::string& path) const EXCLUDES(mu_);

  /// Immediate children of `dir` known locally, sorted by name.
  std::vector<posixfs::Dirent> list(const std::string& dir) const EXCLUDES(mu_);

  std::size_t file_count() const EXCLUDES(mu_);

  /// Order-independent digest of shard `shard` (0 when empty): XOR-fold of
  /// per-entry mixes, so replicas agree regardless of insertion order.
  std::uint64_t shard_digest(std::uint32_t shard, std::uint32_t nshards) const
      EXCLUDES(mu_);

  /// Serializes every entry of one shard (deterministic: sorted by path).
  Bytes serialize_shard(std::uint32_t shard, std::uint32_t nshards) const
      EXCLUDES(mu_);

  /// Merges a serialize_shard() blob; returns how many entries won their
  /// LWW race and were applied. Throws std::invalid_argument on truncation.
  std::size_t merge_shard(ByteView blob) EXCLUDES(mu_);

  /// Drops every entry of one shard.
  void drop_shard(std::uint32_t shard, std::uint32_t nshards) EXCLUDES(mu_);

  /// Sorted file paths of one shard.
  std::vector<std::string> shard_paths(std::uint32_t shard,
                                       std::uint32_t nshards) const EXCLUDES(mu_);

  /// Every file path held locally, sorted.
  std::vector<std::string> all_paths() const EXCLUDES(mu_);

 private:
  bool insert_locked(const std::string& path, const VersionedStat& entry,
                     bool versioned) REQUIRES(mu_);
  void index_parents_locked(const std::string& path) REQUIRES(mu_);
  void reindex_locked() REQUIRES(mu_);

  mutable sync::Mutex mu_{"metadata_store.mu"};
  std::unordered_map<std::string, VersionedStat> files_ GUARDED_BY(mu_);
  // dir -> immediate children (name, is_dir)
  std::unordered_map<std::string, std::set<std::pair<std::string, bool>>> children_
      GUARDED_BY(mu_);
  std::set<std::string> dirs_ GUARDED_BY(mu_);
};

}  // namespace fanstore::cluster
