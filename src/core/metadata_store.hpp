// In-RAM metadata store (§IV-C1): the per-rank shard-local namespace. The
// metadata cluster (cluster/node.hpp, DESIGN.md §13) fills it with the
// shards the hash ring assigns this rank (plus entries it authored); under
// full replication, the default, that is every shard, so every node holds
// the complete namespace, as in the paper. Misses of shards owned
// elsewhere resolve against their owners. Either way the metadata storms
// of §II-B1 (millions of stat() calls from dozens of I/O threads) are
// answered from RAM, not the PFS.
//
// Entries carry a (version, writer) pair with a deterministic
// last-writer-wins merge so replicas converge without owner forwarding.
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

namespace fanstore::core {

class MetadataStore final : public cluster::ShardStore {
 public:
  /// Inserts or replaces the entry for `path` (normalized, dataset-rooted)
  /// unconditionally at version 0 — the load-time path (partition
  /// manifests). Parent directories become visible automatically.
  void insert(const std::string& path, const format::FileStat& stat) EXCLUDES(mu_);

  std::optional<format::FileStat> lookup(const std::string& path) const EXCLUDES(mu_);

  bool dir_exists(const std::string& path) const EXCLUDES(mu_);

  /// Immediate children of `dir`, sorted by name.
  std::vector<posixfs::Dirent> list(const std::string& dir) const EXCLUDES(mu_);

  std::size_t file_count() const EXCLUDES(mu_);

  // --- cluster::ShardStore ----------------------------------------------
  bool insert_versioned(const std::string& path,
                        const cluster::VersionedStat& entry) override EXCLUDES(mu_);
  std::optional<cluster::VersionedStat> lookup_versioned(
      const std::string& path) const override EXCLUDES(mu_);
  std::optional<format::FileStat> lookup_any(
      const std::string& path) const override EXCLUDES(mu_);
  std::vector<posixfs::Dirent> list_local(
      const std::string& dir) const override EXCLUDES(mu_);
  bool dir_exists_local(const std::string& dir) const override EXCLUDES(mu_);
  std::uint64_t shard_digest(std::uint32_t shard,
                             std::uint32_t nshards) const override EXCLUDES(mu_);
  Bytes serialize_shard(std::uint32_t shard,
                        std::uint32_t nshards) const override EXCLUDES(mu_);
  std::size_t merge_shard(ByteView blob) override EXCLUDES(mu_);
  void drop_shard(std::uint32_t shard, std::uint32_t nshards,
                  int keep_owner_rank) override EXCLUDES(mu_);
  std::vector<std::string> shard_paths(std::uint32_t shard,
                                       std::uint32_t nshards) const override
      EXCLUDES(mu_);
  std::vector<std::string> all_paths() const override EXCLUDES(mu_);

 private:
  bool insert_locked(const std::string& path, const cluster::VersionedStat& entry,
                     bool versioned) REQUIRES(mu_);
  void index_parents_locked(const std::string& path) REQUIRES(mu_);
  void reindex_locked() REQUIRES(mu_);

  mutable sync::Mutex mu_{"metadata_store.mu"};
  std::unordered_map<std::string, cluster::VersionedStat> files_ GUARDED_BY(mu_);
  // dir -> immediate children (name, is_dir)
  std::unordered_map<std::string, std::set<std::pair<std::string, bool>>> children_
      GUARDED_BY(mu_);
  std::set<std::string> dirs_ GUARDED_BY(mu_);
};

}  // namespace fanstore::core
