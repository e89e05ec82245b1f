// The contract the cluster layer has with a rank's local metadata store
// (implemented by core::MetadataStore): the namespace is partitioned into a
// fixed number of shards by stable path hash, entries carry a
// (version, writer) pair so replicated writes resolve by deterministic
// last-writer-wins instead of owner forwarding, and each shard exposes an
// order-independent digest so anti-entropy can tell "identical" from
// "pull me" without moving bytes.
//
// The interface lives here (not in core/) so the cluster library depends
// only on leaf libraries; core implements it and links cluster.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "format/file_stat.hpp"
#include "posixfs/vfs.hpp"
#include "util/bytes.hpp"

namespace fanstore::cluster {

/// A metadata entry with its conflict-resolution version. Replicas apply
/// the entry with the lexicographically larger (version, writer) — every
/// replica reaches the same winner regardless of delivery order. Version 0
/// marks a locally loaded, never-replicated entry.
struct VersionedStat {
  format::FileStat stat;
  std::uint64_t version = 0;
  std::uint32_t writer = 0;

  /// True when this entry beats `other` under deterministic LWW.
  bool wins_over(const VersionedStat& other) const {
    if (version != other.version) return version > other.version;
    return writer > other.writer;
  }
};

/// Shard assignment: a pure function of the path bytes and the (fixed)
/// shard count, identical on every rank. Membership changes move whole
/// shards between owners; they never re-split paths.
std::uint32_t shard_of(std::string_view path, std::uint32_t nshards);

/// Per-shard view over a rank's local metadata. Implementations are
/// internally synchronized (the cluster service thread and application
/// threads call concurrently).
class ShardStore {
 public:
  virtual ~ShardStore() = default;

  /// Applies `entry` iff it wins over (or first-inserts) the current entry
  /// for `path`. Returns true when the store changed.
  virtual bool insert_versioned(const std::string& path,
                                const VersionedStat& entry) = 0;

  /// The versioned entry for a *file* path (directories are synthesized,
  /// not stored, and have no version).
  virtual std::optional<VersionedStat> lookup_versioned(
      const std::string& path) const = 0;

  /// Plain stat lookup including synthesized directory entries — what a
  /// remote metadata query actually serves.
  virtual std::optional<format::FileStat> lookup_any(
      const std::string& path) const = 0;

  /// Immediate children of `dir` known locally, and whether `dir` is a
  /// known directory — the inputs to a sharded listing union.
  virtual std::vector<posixfs::Dirent> list_local(const std::string& dir) const = 0;
  virtual bool dir_exists_local(const std::string& dir) const = 0;

  /// Order-independent digest of shard `shard` (0 when empty): XOR-fold of
  /// per-entry mixes, so replicas agree regardless of insertion order.
  virtual std::uint64_t shard_digest(std::uint32_t shard,
                                     std::uint32_t nshards) const = 0;

  /// Serializes every entry of one shard (deterministic: sorted by path).
  virtual Bytes serialize_shard(std::uint32_t shard,
                                std::uint32_t nshards) const = 0;

  /// Merges a serialize_shard() blob; returns how many entries won their
  /// LWW race and were applied.
  virtual std::size_t merge_shard(ByteView blob) = 0;

  /// Drops every entry of one shard — except entries whose data lives in
  /// this rank's backend (`keep_owner_rank`), which stay as a
  /// non-authoritative local convenience copy. -1 keeps nothing.
  virtual void drop_shard(std::uint32_t shard, std::uint32_t nshards,
                          int keep_owner_rank) = 0;

  /// Sorted file paths of one shard.
  virtual std::vector<std::string> shard_paths(std::uint32_t shard,
                                               std::uint32_t nshards) const = 0;

  /// Every file path held locally, sorted.
  virtual std::vector<std::string> all_paths() const = 0;
};

}  // namespace fanstore::cluster
