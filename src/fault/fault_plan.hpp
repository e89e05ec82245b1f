// Deterministic fault-injection plans (DESIGN.md §8 "Fault model").
//
// A FaultPlan is a declarative script of adversity: message-level faults at
// the mpi mailbox boundary (drop / delay / duplicate / corrupt), daemon
// crash windows (virtual-clock instants or served-request counts),
// per-rank straggler multipliers for the simnet cost models, and injected
// backend read errors. Plans are plain data — they carry no state; the
// FaultInjector (injector.hpp) executes them.
//
// Determinism contract: every probabilistic decision in a plan is derived
// from (plan seed, rule index, channel, per-channel sequence number), never
// from wall-clock time or a shared global counter. Two runs with the same
// seed and the same per-channel message order produce the identical fault
// schedule; tests replay any failure from its printed FANSTORE_FAULT_SEED.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "mpi/envelope.hpp"

namespace fanstore::fault {

/// Wildcard for rule filters.
constexpr int kAnyRank = -1;
constexpr int kAnyTag = -1;

// Rules name tags from the one tag table, mpi/envelope.hpp. The link
// builders below scope their rules to the fetch protocol (kTagFetch and
// the fetch reply tags); the churn builder to the cluster requests
// kTagGossip..kTagListDir and the cluster reply tags. Every message is an
// mpi::envelope, so a corrupted one is rejected by its crc before it is
// read. Setup traffic is still never faulted: the ring copy, write-meta
// forwards, the one-way shard push (kTagMetaPush) and the daemon's
// self-addressed shutdown token have receivers that block without a
// timeout or rely on the message landing, and faulting them would wedge
// world construction or drop a shard's only hand-off rather than test
// resilience.

/// One scripted behaviour for point-to-point messages crossing the mailbox
/// boundary. All matching rules apply independently (their draws use
/// distinct streams). Self-addressed messages (src == dest, e.g. the
/// daemon's own shutdown token) are never faulted.
struct MessageRule {
  // --- filter ---
  int src = kAnyRank;
  int dest = kAnyRank;
  int tag = kAnyTag;  // exact tag; kAnyTag defers to [tag_min, tag_max]
  // Inclusive tag range, consulted only when `tag == kAnyTag` and
  // `tag_max >= tag_min >= 0` (e.g. the fetch-reply tag space >= 1000).
  int tag_min = -1;
  int tag_max = -1;

  // --- actions (independent deterministic draws per matching message) ---
  double drop_prob = 0;     // message vanishes
  double dup_prob = 0;      // message is delivered twice
  double corrupt_prob = 0;  // payload bytes are flipped in place
  double delay_prob = 0;    // delivery is deferred by delay_ms
  int delay_ms = 0;

  // --- scoping ---
  /// Let the first N matching messages of each channel pass unfaulted
  /// ("crash after the warm-up fetches").
  std::uint64_t skip_first = 0;
  /// Global budget: once this many faults were injected by this rule, it
  /// goes inert (max by default).
  std::uint64_t max_faults = std::numeric_limits<std::uint64_t>::max();

  bool matches(int s, int d, int t) const;
};

/// Daemon liveness script for one rank: a crash window on the rank's
/// virtual clock, or a crash after N fetch requests. A "dead" daemon
/// silently drops every request — fetch, write-meta and cluster alike
/// (exactly what a crashed process looks like from the wire).
struct DaemonRule {
  int rank = kAnyRank;
  /// Virtual-clock window [crash_at_vsec, restart_at_vsec) during which the
  /// daemon is dead; restart_at_vsec < 0 means it never comes back.
  double crash_at_vsec = -1;
  double restart_at_vsec = -1;
  /// Alternative trigger: dead once the rank has seen this many fetch
  /// requests (0 = disabled).
  std::uint64_t crash_after_fetches = 0;
};

/// Per-rank slow-node multiplier applied to the simnet cost models at
/// Instance construction (NetworkModel::scaled / StorageModel::scaled).
struct StragglerRule {
  int rank = kAnyRank;
  double network_mult = 1.0;
  double storage_mult = 1.0;
};

/// Injected node-local backend read errors (a flaky SSD / torn object):
/// get() returns nothing (fail) or a corrupted copy.
struct BackendRule {
  int rank = kAnyRank;
  std::string path_prefix;  // empty matches every path
  double fail_prob = 0;
  double corrupt_prob = 0;
  std::uint64_t skip_first = 0;
  std::uint64_t max_faults = std::numeric_limits<std::uint64_t>::max();

  bool matches(int rank_in, std::string_view path) const;
};

struct FaultPlan {
  std::uint64_t seed = 0x5EEDFA17ull;
  std::vector<MessageRule> messages;
  std::vector<DaemonRule> daemons;
  std::vector<StragglerRule> stragglers;
  std::vector<BackendRule> backends;

  bool empty() const {
    return messages.empty() && daemons.empty() && stragglers.empty() &&
           backends.empty();
  }

  // --- fluent builders (return *this for chaining) ---
  // The three link builders scope their rules to the fetch protocol
  // (requests + replies, see above); for arbitrary-tag faults push a
  // MessageRule directly.
  FaultPlan& with_seed(std::uint64_t s);
  /// Lossy fabric: drop fetch-protocol messages with `prob`.
  FaultPlan& lossy_links(double prob);
  /// Defer delivery of fetch-protocol messages by `ms` with probability
  /// `prob`.
  FaultPlan& delayed_links(double prob, int ms);
  /// Duplicate fetch-protocol messages with probability `prob`.
  FaultPlan& duplicating_links(double prob);
  /// Corrupt payloads originating at `src` within the inclusive tag range.
  FaultPlan& corrupt_from(int src, int tag_min, int tag_max, double prob);
  FaultPlan& kill_daemon_after(int rank, std::uint64_t fetches);
  FaultPlan& crash_window(int rank, double at_vsec, double until_vsec);
  FaultPlan& straggler(int rank, double network_mult, double storage_mult);

  /// A survivable randomized chaos mix for soak testing, fully determined
  /// by (seed, nranks): a lossy + delaying + duplicating + lightly
  /// corrupting fabric, one straggler rank, and (for nranks >= 3) one
  /// daemon that dies after a few fetches. Designed so that single-replica
  /// ring placement plus failover_hops >= 2 and a couple of retries always
  /// reach the data.
  static FaultPlan chaos_from_seed(std::uint64_t seed, int nranks);

  /// A survivable randomized adversary for the membership-churn suite,
  /// fully determined by (seed, nranks): delayed + duplicated cluster
  /// requests and replies, outright-dropped gossip (the view is a CRDT —
  /// later rounds re-carry the same state), and lightly corrupted cluster
  /// requests and replies (rejected by the envelope crc, surfacing as
  /// timeouts). Data-path and setup traffic is untouched.
  static FaultPlan membership_churn_from_seed(std::uint64_t seed, int nranks);
};

/// Reads FANSTORE_FAULT_SEED from the environment; `fallback` when unset
/// or unparsable. Chaos tests derive their plans from this so any failure
/// is replayable by exporting the seed the test printed.
std::uint64_t fault_seed_from_env(std::uint64_t fallback);

}  // namespace fanstore::fault
