#include "cluster/hash_ring.hpp"

#include <algorithm>
#include <limits>

#include "cluster/shard_store.hpp"
#include "util/hash.hpp"

namespace fanstore::cluster {

std::uint32_t shard_of(std::string_view path, std::uint32_t nshards) {
  if (nshards == 0) return 0;
  return static_cast<std::uint32_t>(util::stable_hash64(path) % nshards);
}

HashRing::HashRing(const std::vector<int>& members, int replication_factor) {
  members_ = members;
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()), members_.end());
  rf_ = replication_factor < 1 ? 1 : replication_factor;
  points_.reserve(members_.size() * static_cast<std::size_t>(kVnodes));
  for (std::size_t i = 0; i < members_.size(); ++i) {
    // Vnode points derive from (rank, vnode index) only, so a member's
    // points are identical in every ring that contains it — the property
    // that makes membership changes move O(1/members) of the shards.
    const std::uint64_t base = util::mix64(
        0x9E3779B97F4A7C15ull ^
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(members_[i])));
    for (int v = 0; v < kVnodes; ++v) {
      // Points carry the member's index, which sorts like its rank.
      points_.emplace_back(util::mix64(base + static_cast<std::uint64_t>(v)),
                           static_cast<int>(i));
    }
  }
  std::sort(points_.begin(), points_.end());
}

std::vector<HashRing::Point>::const_iterator HashRing::first_point(
    std::uint32_t shard) const {
  const std::uint64_t h = util::mix64(0xC1A57E12D00Dull + shard);
  const auto it = std::lower_bound(
      points_.begin(), points_.end(),
      std::make_pair(h, std::numeric_limits<int>::min()));
  return it == points_.end() ? points_.begin() : it;
}

bool HashRing::full() const {
  return static_cast<std::size_t>(rf_) >= members_.size();
}

std::vector<int> HashRing::shard_owners(std::uint32_t shard) const {
  std::vector<int> out;
  if (points_.empty()) return out;
  const std::size_t want =
      std::min(static_cast<std::size_t>(rf_), members_.size());
  out.reserve(want);
  // One pass clockwise; `seen` (by member index) dedupes in O(1), so even
  // a full ring (want == members) costs a single scan of the points.
  std::vector<bool> seen(members_.size(), false);
  auto it = first_point(shard);
  for (std::size_t scanned = 0; scanned < points_.size() && out.size() < want;
       ++scanned, ++it) {
    if (it == points_.end()) it = points_.begin();
    const auto idx = static_cast<std::size_t>(it->second);
    if (seen[idx]) continue;
    seen[idx] = true;
    out.push_back(members_[idx]);
  }
  return out;
}

std::vector<int> HashRing::owners(std::string_view path,
                                  std::uint32_t nshards) const {
  return shard_owners(shard_of(path, nshards));
}

bool HashRing::is_owner(int rank, std::uint32_t shard) const {
  if (full()) return std::binary_search(members_.begin(), members_.end(), rank);
  const auto o = shard_owners(shard);
  return std::find(o.begin(), o.end(), rank) != o.end();
}

int HashRing::primary(std::uint32_t shard) const {
  if (points_.empty()) return -1;
  return members_[static_cast<std::size_t>(first_point(shard)->second)];
}

}  // namespace fanstore::cluster
