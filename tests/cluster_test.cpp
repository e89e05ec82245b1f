// Unit + property tests for the sharded-metadata building blocks
// (DESIGN.md §13): the consistent-hash ring, the CRDT membership view,
// cluster::MetadataStore and its shard surface, and the lookup cache
// (alone, and behind ClusterNode::resolve / lookup on a manual-pump world).
// The live multi-node churn scenarios are in membership_churn_test.cpp;
// this file proves the deterministic algebra those scenarios lean on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/lookup_cache.hpp"
#include "cluster/membership.hpp"
#include "cluster/metadata_store.hpp"
#include "cluster/shard_store.hpp"
#include "tests/cluster_sim.hpp"
#include "util/rng.hpp"

namespace fanstore {
namespace {

using cluster::HashRing;
using cluster::LookupCache;
using cluster::MemberInfo;
using cluster::MembershipView;
using cluster::MemberState;
using cluster::MetadataStore;
using cluster::VersionedStat;

constexpr std::uint32_t kShards = 64;

format::FileStat stat_of_size(std::uint64_t size, std::uint32_t owner = 0) {
  format::FileStat s;
  s.size = size;
  s.compressed_size = size;
  s.owner_rank = owner;
  return s;
}

// ---------------------------------------------------------------- HashRing

TEST(HashRingTest, OwnershipIsAPureFunctionOfMembersAndRf) {
  const std::vector<int> members = {4, 0, 2, 7, 5};
  std::vector<int> shuffled = {7, 5, 4, 2, 0, 4, 2};  // unsorted + dupes
  const HashRing a(members, 2);
  const HashRing b(members, 2);
  const HashRing c(shuffled, 2);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(a.shard_owners(s), b.shard_owners(s)) << s;
    EXPECT_EQ(a.shard_owners(s), c.shard_owners(s)) << s;
  }
}

TEST(HashRingTest, OwnersAreDistinctAndExactlyRf) {
  const HashRing ring({0, 1, 2, 3, 4}, 3);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const auto owners = ring.shard_owners(s);
    ASSERT_EQ(owners.size(), 3u) << s;
    std::set<int> uniq(owners.begin(), owners.end());
    EXPECT_EQ(uniq.size(), owners.size()) << s;
    EXPECT_EQ(owners.front(), ring.primary(s)) << s;
    for (const int r : owners) EXPECT_TRUE(ring.is_owner(r, s)) << s;
  }
}

TEST(HashRingTest, RfClampsToMemberCount) {
  const HashRing ring({3, 9}, 5);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const auto owners = ring.shard_owners(s);
    ASSERT_EQ(owners.size(), 2u);
    EXPECT_NE(owners[0], owners[1]);
  }
}

TEST(HashRingTest, EmptyRingOwnsNothing) {
  const HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.shard_owners(0).empty());
  EXPECT_EQ(ring.primary(0), -1);
  EXPECT_FALSE(ring.is_owner(0, 0));
}

TEST(HashRingTest, AddingOneMemberMovesOnlyAFractionOfShards) {
  // The consistent-hashing promise: growing an 8-member ring to 9 must not
  // reshuffle the world. With naive mod-N placement ~8/9 of shards would
  // change primary; the ring keeps the moved fraction near 1/9. Assert a
  // loose ceiling so the test pins the property, not the constants.
  const std::vector<int> eight = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> nine = eight;
  nine.push_back(8);
  const HashRing before(eight, 2);
  const HashRing after(nine, 2);
  int moved = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    if (before.primary(s) != after.primary(s)) ++moved;
  }
  EXPECT_LT(moved, static_cast<int>(kShards) / 2);
  EXPECT_GT(moved, 0);  // the new member did pick up work
}

TEST(HashRingTest, PathOwnersGoThroughShardOf) {
  const HashRing ring({0, 1, 2}, 2);
  const std::string path = "ds/f17";
  const auto direct = ring.shard_owners(cluster::shard_of(path, kShards));
  EXPECT_EQ(ring.owners(path, kShards), direct);
}

// ------------------------------------------------------------- Membership

TEST(MembershipTest, HigherIncarnationWins) {
  MembershipView v;
  EXPECT_TRUE(v.apply(1, {2, MemberState::kDead}));
  // Stale lower incarnation cannot resurrect or re-kill.
  EXPECT_FALSE(v.apply(1, {1, MemberState::kJoined}));
  EXPECT_EQ(v.get(1).state, MemberState::kDead);
  // The refutation path: the node re-announces itself above the death.
  EXPECT_TRUE(v.apply(1, {3, MemberState::kJoined}));
  EXPECT_EQ(v.get(1).state, MemberState::kJoined);
}

TEST(MembershipTest, EqualIncarnationResolvesToMoreSevereState) {
  MembershipView v;
  v.apply(0, {5, MemberState::kJoined});
  EXPECT_TRUE(v.apply(0, {5, MemberState::kLeaving}));
  EXPECT_TRUE(v.apply(0, {5, MemberState::kDead}));
  EXPECT_FALSE(v.apply(0, {5, MemberState::kLeaving}));
  EXPECT_FALSE(v.apply(0, {5, MemberState::kJoined}));
  EXPECT_EQ(v.get(0).state, MemberState::kDead);
}

TEST(MembershipTest, RingMembersExcludesLeavingAndDead) {
  MembershipView v;
  v.apply(0, {1, MemberState::kJoined});
  v.apply(1, {1, MemberState::kLeaving});
  v.apply(2, {1, MemberState::kDead});
  v.apply(3, {1, MemberState::kJoined});
  EXPECT_EQ(v.ring_members(), (std::vector<int>{0, 3}));
  EXPECT_EQ(v.serving_members(), (std::vector<int>{0, 1, 3}));
}

TEST(MembershipTest, SerializeRoundtripsAndRejectsTruncation) {
  MembershipView v;
  v.apply(0, {1, MemberState::kJoined});
  v.apply(7, {4, MemberState::kLeaving});
  v.apply(3, {9, MemberState::kDead});
  const Bytes blob = v.serialize();
  EXPECT_EQ(MembershipView::deserialize(as_view(blob)), v);
  for (std::size_t cut = 1; cut < blob.size(); ++cut) {
    const ByteView truncated(blob.data(), blob.size() - cut);
    EXPECT_THROW(MembershipView::deserialize(truncated), std::invalid_argument)
        << "cut " << cut;
  }
}

TEST(MembershipTest, DigestMatchesEqualityRegardlessOfApplicationOrder) {
  std::vector<std::pair<int, MemberInfo>> events = {
      {0, {1, MemberState::kJoined}}, {1, {1, MemberState::kJoined}},
      {2, {1, MemberState::kJoined}}, {1, {2, MemberState::kDead}},
      {2, {1, MemberState::kLeaving}}, {1, {3, MemberState::kJoined}},
  };
  MembershipView forward;
  for (const auto& [rank, info] : events) forward.apply(rank, info);
  MembershipView backward;
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    backward.apply(it->first, it->second);
  }
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward.digest(), backward.digest());

  MembershipView different = forward;
  different.apply(5, {1, MemberState::kJoined});
  EXPECT_NE(different.digest(), forward.digest());
}

// Satellite: 10 seeds x {3,5,8} ranks of random join/leave/kill/revive
// schedules. Every rank receives the same event set in its own random
// order; converged views must agree exactly, and ring ownership must be a
// pure function of (converged membership, replication_factor) — computed
// independently per rank with zero communication.
TEST(ClusterPropertyTest, RandomChurnSchedulesConvergeToIdenticalOwnership) {
  for (const int nranks : {3, 5, 8}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      SCOPED_TRACE("nranks " + std::to_string(nranks) + " seed " +
                   std::to_string(seed));
      Rng rng(seed * 1000003ull + static_cast<std::uint64_t>(nranks));

      // A random but causally consistent event history: per-rank
      // incarnations only move forward, kJoined re-announcements bump.
      std::vector<std::uint32_t> inc(static_cast<std::size_t>(nranks), 0);
      std::vector<std::pair<int, MemberInfo>> events;
      for (int r = 0; r < nranks; ++r) {
        inc[static_cast<std::size_t>(r)] = 1;
        events.push_back({r, {1, MemberState::kJoined}});
      }
      const int nevents = 6 + static_cast<int>(rng.next_below(10));
      for (int e = 0; e < nevents; ++e) {
        const int r = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(nranks)));
        auto& i = inc[static_cast<std::size_t>(r)];
        switch (rng.next_below(3)) {
          case 0:  // (re)join refutes whatever came before
            events.push_back({r, {++i, MemberState::kJoined}});
            break;
          case 1:  // graceful leave at the current incarnation
            events.push_back({r, {i, MemberState::kLeaving}});
            break;
          default:  // failure detector declares death
            events.push_back({r, {i, MemberState::kDead}});
            break;
        }
      }

      // Each rank applies the same events in its own shuffled order.
      const int rf = 1 + static_cast<int>(rng.next_below(3));
      std::vector<MembershipView> views(static_cast<std::size_t>(nranks));
      for (int r = 0; r < nranks; ++r) {
        auto order = events;
        for (std::size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[rng.next_below(i)]);
        }
        for (const auto& [rank, info] : order) {
          views[static_cast<std::size_t>(r)].apply(rank, info);
        }
      }

      for (int r = 1; r < nranks; ++r) {
        EXPECT_EQ(views[static_cast<std::size_t>(r)], views[0])
            << views[static_cast<std::size_t>(r)].debug_string() << " vs "
            << views[0].debug_string();
        EXPECT_EQ(views[static_cast<std::size_t>(r)].digest(),
                  views[0].digest());
      }

      // Ownership: every rank builds its ring locally; all agree, and
      // rebuilding from the same inputs reproduces it exactly.
      const HashRing reference(views[0].ring_members(), rf);
      for (int r = 0; r < nranks; ++r) {
        const HashRing ring(views[static_cast<std::size_t>(r)].ring_members(),
                            rf);
        for (std::uint32_t s = 0; s < kShards; ++s) {
          ASSERT_EQ(ring.shard_owners(s), reference.shard_owners(s))
              << "rank " << r << " shard " << s;
        }
      }
    }
  }
}

// Full replication is the ring with rf = members. Its owner lists must be
// the same clockwise walk the partial rings take — every rf-k owner list a
// prefix of it — and its ownership queries must agree with that list, at a
// small and a large member count.
TEST(ClusterPropertyTest, FullRingOwnershipExtendsEveryPartialRing) {
  for (const int nmembers : {8, 64}) {
    SCOPED_TRACE("members " + std::to_string(nmembers));
    std::vector<int> members;
    for (int r = 0; r < nmembers; ++r) members.push_back(3 * r + 1);  // sparse ranks
    const HashRing full(members, nmembers);
    const HashRing beyond(members, nmembers * 4);  // rf caps at the member count
    for (const int rf : {1, 2, 3, nmembers - 1}) {
      const HashRing partial(members, rf);
      for (std::uint32_t s = 0; s < kShards; ++s) {
        const auto all = full.shard_owners(s);
        const auto some = partial.shard_owners(s);
        ASSERT_EQ(some.size(), static_cast<std::size_t>(rf)) << s;
        EXPECT_TRUE(std::equal(some.begin(), some.end(), all.begin())) << s;
        EXPECT_EQ(partial.primary(s), full.primary(s)) << s;
      }
    }
    for (std::uint32_t s = 0; s < kShards; ++s) {
      const auto owners = full.shard_owners(s);
      EXPECT_EQ(owners, beyond.shard_owners(s)) << s;
      std::vector<int> sorted = owners;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, members) << s;  // every member exactly once
      EXPECT_EQ(full.primary(s), owners.front()) << s;
      for (const int r : members) EXPECT_TRUE(full.is_owner(r, s)) << s;
      EXPECT_FALSE(full.is_owner(0, s)) << s;  // not a member
    }
  }
}

TEST(ClusterNodeTest, ReplicationFactorBelowOneIsRejected) {
  mpi::World world(1);
  for (const int rf : {0, -1}) {
    cluster::NodeOptions o;
    o.replication_factor = rf;
    EXPECT_THROW(cluster::ClusterNode(world.comm(0), o),
                 std::invalid_argument)
        << rf;
  }
}

// ----------------------------------------------------------- MetadataStore

TEST(MetadataStoreTest, InsertLookupListStructure) {
  MetadataStore meta;
  meta.insert("imagenet/cat/1.jpg", stat_of_size(10));
  meta.insert("imagenet/cat/2.jpg", stat_of_size(20));
  meta.insert("imagenet/dog/3.jpg", stat_of_size(30));

  EXPECT_EQ(meta.file_count(), 3u);
  EXPECT_EQ(meta.lookup("imagenet/cat/2.jpg")->size, 20u);
  EXPECT_FALSE(meta.lookup("imagenet/cat/9.jpg").has_value());
  EXPECT_TRUE(meta.dir_exists("imagenet"));
  EXPECT_TRUE(meta.dir_exists("imagenet/dog"));
  EXPECT_FALSE(meta.dir_exists("imagenet/bird"));
  // Directory stats are synthesized.
  EXPECT_EQ(meta.lookup("imagenet/cat")->type, format::FileType::kDirectory);

  const auto root = meta.list("");
  ASSERT_EQ(root.size(), 1u);
  EXPECT_EQ(root[0].name, "imagenet");
  const auto cats = meta.list("imagenet/cat");
  ASSERT_EQ(cats.size(), 2u);
  EXPECT_EQ(cats[0].name, "1.jpg");
  const auto top = meta.list("imagenet");
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].type, format::FileType::kDirectory);
}

TEST(ShardStoreTest, ShardOfIsStableAndInRange) {
  for (int i = 0; i < 200; ++i) {
    const std::string p = "ds/f" + std::to_string(i);
    const std::uint32_t s = cluster::shard_of(p, kShards);
    EXPECT_LT(s, kShards);
    EXPECT_EQ(cluster::shard_of(p, kShards), s);
  }
  EXPECT_EQ(cluster::shard_of("anything", 0), 0u);
}

TEST(ShardStoreTest, EmptyShardDigestsZeroAndInsertionOrderDoesNotMatter) {
  MetadataStore a;
  MetadataStore b;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(a.shard_digest(s, kShards), 0u);
  }
  std::vector<std::string> paths;
  for (int i = 0; i < 40; ++i) paths.push_back("p/f" + std::to_string(i));
  for (const auto& p : paths) {
    a.insert_versioned(p, {stat_of_size(100), 1, 0});
  }
  std::reverse(paths.begin(), paths.end());
  for (const auto& p : paths) {
    b.insert_versioned(p, {stat_of_size(100), 1, 0});
  }
  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(a.shard_digest(s, kShards), b.shard_digest(s, kShards)) << s;
  }
}

TEST(ShardStoreTest, DigestReflectsVersionAndContent) {
  MetadataStore a;
  a.insert_versioned("x", {stat_of_size(10), 1, 0});
  const std::uint32_t s = cluster::shard_of("x", kShards);
  const auto d1 = a.shard_digest(s, kShards);
  ASSERT_NE(d1, 0u);
  // A winning overwrite changes the digest; a losing one does not.
  EXPECT_TRUE(a.insert_versioned("x", {stat_of_size(11), 2, 0}));
  const auto d2 = a.shard_digest(s, kShards);
  EXPECT_NE(d2, d1);
  EXPECT_FALSE(a.insert_versioned("x", {stat_of_size(12), 1, 9}));
  EXPECT_EQ(a.shard_digest(s, kShards), d2);
}

TEST(ShardStoreTest, SerializeMergeRoundtripCountsOnlyWinners) {
  MetadataStore src;
  const std::uint32_t target = 5;
  std::vector<std::string> in_shard;
  for (int i = 0; in_shard.size() < 6; ++i) {
    const std::string p = "m/f" + std::to_string(i);
    if (cluster::shard_of(p, kShards) == target) {
      src.insert_versioned(p, {stat_of_size(10 + in_shard.size()), 2, 1});
      in_shard.push_back(p);
    }
  }
  const Bytes blob = src.serialize_shard(target, kShards);

  MetadataStore dst;
  // Pre-seed one path with a *newer* version: it must survive the merge.
  dst.insert_versioned(in_shard[0], {stat_of_size(999), 7, 2});
  EXPECT_EQ(dst.merge_shard(as_view(blob)), in_shard.size() - 1);
  EXPECT_EQ(dst.lookup_versioned(in_shard[0])->version, 7u);
  EXPECT_EQ(dst.lookup_versioned(in_shard[1])->version, 2u);
  // Idempotent: replaying the same blob applies nothing new.
  EXPECT_EQ(dst.merge_shard(as_view(blob)), 0u);
  EXPECT_EQ(dst.shard_paths(target, kShards).size(), in_shard.size());

  // Truncated blobs are rejected loudly, not half-applied silently.
  ASSERT_GT(blob.size(), 3u);
  const ByteView cut(blob.data(), blob.size() - 3);
  EXPECT_THROW((void)dst.merge_shard(cut), std::invalid_argument);
}

TEST(ShardStoreTest, DropShardRemovesEveryEntry) {
  MetadataStore store;
  std::string mine;
  std::string theirs;
  std::string other_shard;
  const std::uint32_t target = 9;
  for (int i = 0; mine.empty() || theirs.empty() || other_shard.empty(); ++i) {
    const std::string p = "d/f" + std::to_string(i);
    if (cluster::shard_of(p, kShards) != target) {
      if (other_shard.empty()) {
        store.insert_versioned(p, {stat_of_size(3), 1, 0});
        other_shard = p;
      }
    } else if (mine.empty()) {
      // An entry whose data lives on this rank goes too: no convenience
      // copy outlives its shard.
      store.insert_versioned(p, {stat_of_size(1, /*owner=*/3), 1, 3});
      mine = p;
    } else if (theirs.empty()) {
      store.insert_versioned(p, {stat_of_size(2, /*owner=*/0), 1, 0});
      theirs = p;
    }
  }
  store.drop_shard(target, kShards);
  EXPECT_FALSE(store.lookup_versioned(mine).has_value());
  EXPECT_FALSE(store.lookup_versioned(theirs).has_value());
  EXPECT_EQ(store.shard_digest(target, kShards), 0u);
  EXPECT_TRUE(store.lookup_versioned(other_shard).has_value());
  EXPECT_TRUE(store.dir_exists("d"));  // re-indexed from what is left
}

TEST(ShardStoreTest, ClassicInsertIsVersionZeroAndDirsAreSynthesized) {
  MetadataStore store;
  store.insert("a/b/c", stat_of_size(42));
  const auto v = store.lookup_versioned("a/b/c");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, 0u);
  // Synthesized directories answer lookup but carry no version.
  EXPECT_FALSE(store.lookup_versioned("a/b").has_value());
  const auto dir = store.lookup("a/b");
  ASSERT_TRUE(dir.has_value());
  EXPECT_EQ(dir->type, format::FileType::kDirectory);
  EXPECT_TRUE(store.dir_exists("a"));
  EXPECT_EQ(store.list("a").size(), 1u);
}

// ---------------------------------------------------------------------------
// resolve()'s lookup cache (DESIGN.md §13 "Lookup cache").

VersionedStat dataset_entry(std::uint64_t size) {
  return VersionedStat{stat_of_size(size), 0, 0};
}

TEST(LookupCacheTest, HoldsOnlyVersionZeroRegularFiles) {
  EXPECT_TRUE(LookupCache::cacheable(dataset_entry(10)));
  EXPECT_FALSE(LookupCache::cacheable(VersionedStat{stat_of_size(10), 1, 2}));
  VersionedStat dir = dataset_entry(0);
  dir.stat.type = format::FileType::kDirectory;
  EXPECT_FALSE(LookupCache::cacheable(dir));

  LookupCache cache(8);
  std::uint64_t epoch = 0;
  ASSERT_FALSE(cache.find("w", &epoch).has_value());
  cache.insert("w", VersionedStat{stat_of_size(10), 1, 2}, epoch);
  cache.insert("d", dir, epoch);
  EXPECT_FALSE(cache.find("w", &epoch).has_value());
  EXPECT_FALSE(cache.find("d", &epoch).has_value());
  cache.insert("f", dataset_entry(10), epoch);
  const auto hit = cache.find("f", &epoch);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->stat.size, 10u);
}

TEST(LookupCacheTest, EvictsOldestFirstAtTheBound) {
  LookupCache cache(2);
  std::uint64_t epoch = 0;
  ASSERT_FALSE(cache.find("a", &epoch).has_value());
  cache.insert("a", dataset_entry(1), epoch);
  cache.insert("a", dataset_entry(1), epoch);  // a racing miss: one slot
  cache.insert("b", dataset_entry(2), epoch);
  EXPECT_TRUE(cache.find("a", &epoch).has_value());
  cache.insert("c", dataset_entry(3), epoch);
  EXPECT_FALSE(cache.find("a", &epoch).has_value());
  EXPECT_TRUE(cache.find("b", &epoch).has_value());
  EXPECT_TRUE(cache.find("c", &epoch).has_value());
}

TEST(LookupCacheTest, InvalidateDropsEntriesAndAnswersFromTheOldEpoch) {
  LookupCache cache(8);
  std::uint64_t before = 0;
  ASSERT_FALSE(cache.find("a", &before).has_value());
  cache.insert("a", dataset_entry(1), before);
  ASSERT_FALSE(cache.find("b", &before).has_value());
  cache.invalidate();  // a ring rebuild while b's RPC was out
  std::uint64_t after = 0;
  EXPECT_FALSE(cache.find("a", &after).has_value());
  cache.insert("b", dataset_entry(2), before);
  EXPECT_FALSE(cache.find("b", &after).has_value());
  EXPECT_NE(after, before);
  cache.insert("b", dataset_entry(2), after);
  EXPECT_TRUE(cache.find("b", &after).has_value());
}

/// Resolve- and lookup-level checks on a 3-rank rf = 1 world: every path
/// has one owner, so a lookup from a non-owner is one RPC to it.
class ResolveCacheTest : public ::testing::Test {
 protected:
  ResolveCacheTest() : sim_(sim_options()) {
    for (int r = 0; r < 3; ++r) sim_.node(r).bootstrap({0, 1, 2});
  }

  static testsupport::ClusterSim::Options sim_options() {
    testsupport::ClusterSim::Options o;
    o.nranks = 3;
    o.replication_factor = 1;
    return o;
  }

  /// The first `prefix<i>` whose shard rank 0 does not own.
  std::string remote_path(const std::string& prefix) {
    for (int i = 0;; ++i) {
      const std::string p = prefix + std::to_string(i);
      if (owner(p) != 0) return p;
    }
  }
  int owner(const std::string& p) { return sim_.node(0).meta_owners(p).front(); }

  std::uint64_t counter(int r, const char* name) {
    return sim_.metrics(r).counter(name).value();
  }
  std::uint64_t rpcs() { return counter(0, "cluster.lookups_remote"); }
  std::uint64_t hits() { return counter(0, "cluster.lookup_cache_hits"); }

  testsupport::ClusterSim sim_;
};

Bytes stat_bytes(const format::FileStat& st) {
  Bytes out(format::kStatBytes);
  st.serialize(out.data());
  return out;
}

TEST_F(ResolveCacheTest, SecondResolveOfADatasetPathSendsNoRpc) {
  const std::string p = remote_path("ds/img");
  const int o = owner(p);
  sim_.put_dataset_file(o, p, 4096);

  const auto first = sim_.node(0).resolve(p);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(rpcs(), 1u);
  EXPECT_EQ(counter(o, "cluster.meta_served"), 1u);

  const auto second = sim_.node(0).resolve(p);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(rpcs(), 1u);
  EXPECT_EQ(hits(), 1u);
  EXPECT_EQ(counter(o, "cluster.meta_served"), 1u);  // the owner saw nothing
  EXPECT_EQ(stat_bytes(second->stat), stat_bytes(first->stat));
  EXPECT_EQ(second->version, 0u);
  EXPECT_EQ(second->writer, first->writer);
}

TEST_F(ResolveCacheTest, NegativeAnswersAreNotCached) {
  const std::string p = remote_path("out/ckpt");
  const int o = owner(p);
  EXPECT_FALSE(sim_.node(0).resolve(p).has_value());
  EXPECT_EQ(rpcs(), 1u);
  EXPECT_EQ(counter(0, "cluster.lookup_misses"), 1u);

  // Another rank writes the file; its metadata reaches the shard owner.
  sim_.put_file(o, p, 777);
  const auto got = sim_.node(0).resolve(p);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stat.size, 777u);
  EXPECT_EQ(rpcs(), 2u);
  EXPECT_EQ(hits(), 0u);
}

TEST_F(ResolveCacheTest, WrittenFilesAreNeverServedFromTheCache) {
  const std::string p = remote_path("out/shared");
  const int o = owner(p);
  format::FileStat st = stat_of_size(100, 1);
  sim_.store(o).insert_versioned(p, VersionedStat{st, 1, 1});
  for (int i = 1; i <= 2; ++i) {
    const auto got = sim_.node(0).resolve(p);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->writer, 1u);
    EXPECT_EQ(rpcs(), static_cast<std::uint64_t>(i));
  }

  // A second writer of the same path wins last-writer-wins at the owner;
  // the next resolve must see it, not the first writer's answer.
  st = stat_of_size(200, 2);
  ASSERT_TRUE(sim_.store(o).insert_versioned(p, VersionedStat{st, 1, 2}));
  const auto got = sim_.node(0).resolve(p);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->writer, 2u);
  EXPECT_EQ(got->stat.size, 200u);
  EXPECT_EQ(rpcs(), 3u);
  EXPECT_EQ(hits(), 0u);
}

TEST_F(ResolveCacheTest, DirectoriesAreNotCached) {
  const std::string p = remote_path("tree/leaf");
  sim_.put_dataset_file(owner(p), p, 64);
  for (int i = 1; i <= 2; ++i) {
    const auto got = sim_.node(0).resolve("tree");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->stat.type, format::FileType::kDirectory);
    EXPECT_EQ(rpcs(), static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(hits(), 0u);
}

TEST_F(ResolveCacheTest, LookupAnswersALocalCopyWithoutAnRpc) {
  // A convenience copy of a path whose shard rank 0 does not own (what a
  // write close leaves on the writer) is answered locally.
  ASSERT_TRUE(sim_.node(0).sharded());
  const std::string p = remote_path("out/mine");
  sim_.put_file(0, p, 321);
  const auto got = sim_.node(0).lookup(p);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size, 321u);
  EXPECT_EQ(rpcs(), 0u);
  EXPECT_EQ(counter(owner(p), "cluster.meta_served"), 0u);
}

TEST_F(ResolveCacheTest, LookupMissCostsOneRpcAndReturnsTheOwnersStat) {
  const std::string p = remote_path("ds/remote");
  const int o = owner(p);
  sim_.put_dataset_file(o, p, 2048);
  const auto got = sim_.node(0).lookup(p);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(stat_bytes(*got), stat_bytes(*sim_.store(o).lookup(p)));
  EXPECT_EQ(rpcs(), 1u);
  EXPECT_EQ(counter(o, "cluster.meta_served"), 1u);
  EXPECT_FALSE(sim_.store(0).lookup(p).has_value());  // not copied locally
}

TEST_F(ResolveCacheTest, FullReplicationLookupMissSendsNoRpc) {
  testsupport::ClusterSim::Options o = sim_options();
  o.replication_factor = o.nranks;
  testsupport::ClusterSim full(o);
  for (int r = 0; r < o.nranks; ++r) full.node(r).bootstrap({0, 1, 2});
  ASSERT_FALSE(full.node(0).sharded());
  EXPECT_FALSE(full.node(0).lookup("out/absent").has_value());
  for (int r = 0; r < o.nranks; ++r) {
    EXPECT_EQ(full.metrics(r).counter("cluster.lookups_remote").value(), 0u) << r;
    EXPECT_EQ(full.metrics(r).counter("cluster.meta_served").value(), 0u) << r;
  }
}

}  // namespace
}  // namespace fanstore
