// The shard vocabulary shared by the metadata cluster and its store
// (cluster/metadata_store.hpp): the namespace is partitioned into a fixed
// number of shards by stable path hash, and entries carry a
// (version, writer) pair so replicated writes resolve by deterministic
// last-writer-wins instead of owner forwarding.
#pragma once

#include <cstdint>
#include <string_view>

#include "format/file_stat.hpp"

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

}  // namespace fanstore::cluster
