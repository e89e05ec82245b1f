// ClusterNode: one rank's membership + sharded-metadata service (DESIGN.md
// §13), the only metadata path. It owns the rank's MetadataStore, and
// core::FanStoreFs asks it (lookup, listings, write-meta owners) and
// nothing else:
//
//   membership  — a MembershipView merged via incarnation-versioned gossip
//                 (push on change; push-pull on join), so every rank
//                 converges to the same member set without coordination
//   placement   — a HashRing over the Joined members; each of the kShards
//                 metadata shards has `replication_factor` owners
//   lookups     — a local miss resolves against the shard's owners over
//                 request/reply messages on the same mpi::Comm the fetch
//                 protocol uses (mpi::kTagGossip..kTagMetaPush, replies
//                 from mpi::kClusterReplyTagBase); dataset answers stay in
//                 a bounded LookupCache until the ring next changes
//   anti-entropy— per-shard digests; a joiner/rebalancer pulls only the
//                 shards whose digest differs (delta-only, byte-accounted
//                 in "cluster.sync_bytes")
//   rebalance   — on membership change: pull newly owned shards, push-then-
//                 drop shards no longer owned
//
// Two execution modes share one handler path, handle():
//   threaded — the rank's core::Daemon receive loop (core/daemon.hpp)
//              takes the cluster tags, decides liveness once on the
//              rank's virtual clock and calls handle(); the node owns no
//              thread. Client ops wait kRpcTimeoutMs.
//   manual   — no daemon; a single-threaded simulation drives every node
//              deterministically by calling poll(), and client ops drain
//              the world through NodeOptions::pump (at most
//              mpi::kPumpBudget times) instead of blocking (the
//              membership-churn test suite runs this way on a
//              ManualTimeSource world).
//
// Every request, reply and push is an mpi::envelope (mpi/envelope.hpp).
// handle() unseals before any handler reads a byte: a request or push
// that fails its crc is dropped and counted in cluster.crc_rejects — a
// caller then times out and tries the next owner, exactly as it does for
// a corrupted reply — and a gossip push that fails it is never merged.
//
// Full replication (the paper's design) is the same service with every
// rank an owner: when this rank owns every shard of the current and the
// previous ring, sharded() is false and lookups, listings and enumeration
// answer from the local store without sending anything.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/lookup_cache.hpp"
#include "cluster/membership.hpp"
#include "cluster/metadata_store.hpp"
#include "cluster/shard_store.hpp"
#include "mpi/envelope.hpp"
#include "obs/metrics.hpp"
#include "util/sync.hpp"

namespace fanstore::fault {
class FaultInjector;
}

namespace fanstore::cluster {

// Fixed cluster settings (every rank must agree on kShards; the ring's
// points per member are kVnodes in hash_ring.hpp).
constexpr std::uint32_t kShards = 64;  // metadata shards (shard_of)
constexpr int kRpcTimeoutMs = 2000;    // threaded-mode reply deadline
/// Tries per peer for an answer that must not be lost: a lookup whose
/// every holder's request or reply was corrupted would read as a miss, a
/// listing (enumerate_paths, list_union, dir_exists_union) would drop
/// that peer's entries from the union, and an anti-entropy round that
/// lost a digest or pull would look converged while a shard is missing.
constexpr int kAttempts = 3;

// Metadata-lookup reply status codes.
constexpr std::uint8_t kMetaOk = 0;
constexpr std::uint8_t kMetaNotFound = 1;
constexpr std::uint8_t kMetaMalformed = 2;

struct NodeOptions {
  /// Distinct owner ranks per metadata shard, capped at the member count
  /// (>= members is full replication). Below 1 is rejected at construction
  /// (std::invalid_argument).
  int replication_factor = 1;
  /// Registry for the "cluster.*" metrics; nullptr = private registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Liveness script for poll(): when the injector says this rank is
  /// dead, poll() drops the requests it drains (process-crash semantics).
  /// In threaded mode the daemon's loop makes that decision instead.
  fault::FaultInjector* fault = nullptr;
  /// Manual mode: invoked repeatedly while a call waits for its reply;
  /// the simulation advances its clock and polls every live node.
  /// Unset = threaded mode (blocking waits).
  std::function<void()> pump;
};

/// One anti-entropy round's accounting (delta-only sync is asserted by the
/// churn suite straight off these numbers / the matching "cluster.*"
/// counters).
struct SyncStats {
  std::uint64_t digest_rpcs = 0;
  std::uint64_t shards_pulled = 0;
  std::uint64_t bytes_pulled = 0;
  std::uint64_t entries_applied = 0;
  bool changed = false;
};

struct RebalanceStats {
  SyncStats sync;
  std::uint64_t shards_dropped = 0;
};

class ClusterNode {
 public:
  ClusterNode(mpi::Comm comm, NodeOptions options);

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  // --- serving ----------------------------------------------------------
  /// Unseals one request or push (mpi::kTagGossip..kTagMetaPush) and
  /// dispatches it; a request's handler builds its reply body, which
  /// handle() seals and sends. The caller has already decided the rank is
  /// alive. A message that fails its crc is dropped and counted.
  void handle(const mpi::Message& msg);
  /// Manual mode: handles every pending cluster request now (dropping
  /// them while the fault script says this rank is dead); returns how
  /// many messages were drained.
  int poll();

  // --- membership -------------------------------------------------------
  /// Seeds the view with `members` all Joined at incarnation 1 — the
  /// coordinated startup path (no messages sent). Every initial member
  /// must bootstrap with the same list.
  void bootstrap(const std::vector<int>& members);
  /// Elastic join: announce self (bumped incarnation), push-pull the view
  /// with each seed, pull owned shards, gossip the merged view. Returns
  /// false when no seed answered (the joiner stays isolated).
  bool join(const std::vector<int>& seeds);
  /// Graceful exit: mark self Leaving (drops out of ring ownership but
  /// keeps answering) and gossip.
  void leave();
  /// Failure-detector/admin hook: locally re-state `rank` at its current
  /// incarnation (severity merge: Dead > Leaving > Joined) and gossip.
  void declare(int rank, MemberState state);
  /// Pushes the current view to every serving member once.
  void gossip_now();

  MembershipView view() const EXCLUDES(mu_);
  std::uint64_t view_digest() const EXCLUDES(mu_);

  // --- ring -------------------------------------------------------------
  std::uint32_t nshards() const { return kShards; }
  std::vector<int> shard_owners(std::uint32_t shard) const EXCLUDES(mu_);
  bool owns_shard(std::uint32_t shard) const EXCLUDES(mu_);

  // --- sharded metadata -------------------------------------------------
  /// The startup metadata exchange: every bootstrap member pushes each of
  /// its local shards to that shard's owners (point-to-point, one message
  /// per peer) and merges the members-1 pushes it receives. Must run
  /// before the rank's daemon starts (its loop also takes kTagMetaPush).
  void exchange_initial();
  /// One pull round: fetch peers' shard digests, pull every owned shard
  /// whose digest differs. Convergence loops call this until !changed.
  SyncStats anti_entropy();
  /// anti_entropy plus (optionally) push-then-drop of shards this rank no
  /// longer owns under the current ring.
  RebalanceStats rebalance(bool drop_unowned = true);
  /// Namespace enumeration: this rank's primary shards locally + one list
  /// RPC per serving peer (each contributes the shards it is primary for);
  /// the local store alone under full replication. Sorted, deduplicated.
  std::vector<std::string> enumerate_paths();

  /// False while this rank owns every shard of both the current and the
  /// previous ring (full replication): the lookups below then answer from
  /// the local store and send no RPC.
  bool sharded() const { return !full_.load(); }

  /// This rank's shard-local metadata (the whole namespace under full
  /// replication). Internally synchronized.
  MetadataStore& store() { return store_; }

  // --- lookups (what core::FanStoreFs asks) -----------------------------
  /// A path's stat: the local store first, then — only when sharded() —
  /// resolve(). Remote answers never enter the local store (shard digests
  /// stay a pure function of ownership, so anti-entropy never re-transfers
  /// convenience copies); resolve() keeps dataset answers in its lookup
  /// cache instead.
  std::optional<format::FileStat> lookup(const std::string& path);

  /// Metadata lookup after a local miss: current shard owners first,
  /// previous-ring owners mid-rebalance, then any serving rank (directory
  /// synthesis). Repeats of dataset files are answered from the
  /// LookupCache, and every lookup from the local store when this rank
  /// owns every shard.
  std::optional<VersionedStat> resolve(const std::string& path);

  /// The ranks that must hold `path`'s metadata (write replication set).
  std::vector<int> meta_owners(const std::string& path);

  /// Union of the local store's list(dir) across serving ranks
  /// (deduplicated, sorted).
  std::vector<posixfs::Dirent> list_union(const std::string& dir);
  bool dir_exists_union(const std::string& dir);

 private:
  struct Metrics {
    explicit Metrics(obs::MetricsRegistry& m);
    obs::Counter& gossip_sent;
    obs::Counter& gossip_merged;
    obs::Counter& view_changes;
    obs::Counter& ring_rebuilds;
    obs::Counter& meta_served;
    obs::Counter& lookups_remote;  // resolves that went to the wire
    obs::Counter& lookup_cache_hits;
    obs::Counter& lookup_misses;
    obs::Counter& sync_rounds;
    obs::Counter& shards_pulled;
    obs::Counter& sync_bytes;
    obs::Counter& shards_dropped;
    obs::Counter& push_bytes;
    obs::Counter& merge_skipped;
    obs::Counter& crc_rejects;
  };

  void handle_gossip(const mpi::Unsealed& req, Bytes& out);
  void handle_meta_lookup(ByteView body, Bytes& out) const;
  void handle_shard_digest(Bytes& out) const;
  void handle_shard_pull(ByteView body, Bytes& out) const;
  void handle_list_paths(Bytes& out) const;
  void handle_list_dir(ByteView body, Bytes& out) const;

  /// Merges `incoming` into the view; rebuilds the ring on change.
  bool merge_view(const MembershipView& incoming) EXCLUDES(mu_);
  void rebuild_ring_locked() REQUIRES(mu_);
  /// Recomputes full_ from ring_ and prev_ring_.
  void update_full_locked() REQUIRES(mu_);

  /// What this rank's store answers for `path`: the versioned file entry,
  /// else a synthesized directory stat at version 0.
  std::optional<VersionedStat> local_answer(const std::string& path) const;

  /// A request/reply round trip (kRpcTimeoutMs in threaded mode,
  /// pump-bounded in manual mode), tried up to `attempts` times until a
  /// verified reply arrives; a corrupted reply counts in
  /// cluster.crc_rejects.
  mpi::Reply call(int dest, int tag, ByteView body, int attempts = 1);
  /// Merges a shard push or pull body:
  /// [u32 count]([u32 shard][u32 len][shard blob])*.
  std::size_t merge_push_body(ByteView body);

  mpi::Comm comm_;
  MetadataStore store_;  // internally synchronized
  NodeOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // when not injected
  Metrics m_;

  // Held only for view/ring reads and merges, never across comm_ or
  // store_ calls; the one lock taken under it is lookup_cache_'s leaf,
  // when a ring rebuild empties the cache (DESIGN.md §6).
  mutable sync::Mutex mu_{"cluster.node.mu"};
  MembershipView view_ GUARDED_BY(mu_);
  HashRing ring_ GUARDED_BY(mu_);
  HashRing prev_ring_ GUARDED_BY(mu_);  // lookup fallback mid-rebalance
  std::atomic<bool> full_{false};       // written under mu_; see sharded()

  LookupCache lookup_cache_{kLookupCacheEntries};  // internally synchronized

  mpi::Caller caller_{comm_, mpi::kClusterReplyTagBase};
  const mpi::Wait wait_{kRpcTimeoutMs, options_.pump};
};

}  // namespace fanstore::cluster
