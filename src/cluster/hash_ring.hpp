// Consistent-hash ring (the Hoard-style placement layer). Each member
// rank contributes kVnodes points; a shard's owners are the first
// `replication_factor` *distinct* ranks clockwise from the shard's hash.
//
// Determinism contract: ownership is a pure function of
// (sorted member set, replication_factor) — no RNG, no ambient state — so
// any two ranks holding the same converged MembershipView compute
// identical owner lists without communicating.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace fanstore::cluster {

/// Ring points per member rank: a constant, so every rank builds the same
/// ring from the same member set.
constexpr int kVnodes = 32;

class HashRing {
 public:
  /// An empty ring owns nothing (owners() returns {}).
  HashRing() = default;

  /// `members` need not be sorted or unique; the ring canonicalizes.
  HashRing(const std::vector<int>& members, int replication_factor);

  /// The owner ranks of `shard`, primary first: min(replication_factor,
  /// members) distinct ranks clockwise from hash(shard). At most one scan
  /// of the ring, whatever the replication factor.
  std::vector<int> shard_owners(std::uint32_t shard) const;

  /// Convenience: owners of the shard `path` maps to.
  std::vector<int> owners(std::string_view path, std::uint32_t nshards) const;

  /// O(log members) on a full ring (every member owns every shard).
  bool is_owner(int rank, std::uint32_t shard) const;
  /// O(log points): the first point clockwise. -1 on an empty ring.
  int primary(std::uint32_t shard) const;

  const std::vector<int>& members() const { return members_; }
  int replication_factor() const { return rf_; }
  bool empty() const { return points_.empty(); }

 private:
  using Point = std::pair<std::uint64_t, int>;  // (hash, index in members_)

  /// True when every member owns every shard (rf >= members).
  bool full() const;
  /// The first point at or clockwise after `shard`'s hash; ring non-empty.
  std::vector<Point>::const_iterator first_point(std::uint32_t shard) const;

  std::vector<Point> points_;  // sorted by hash
  std::vector<int> members_;   // sorted, unique
  int rf_ = 1;
};

}  // namespace fanstore::cluster
