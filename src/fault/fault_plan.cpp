#include "fault/fault_plan.hpp"

#include <cstdlib>
#include <limits>

#include "util/rng.hpp"

namespace fanstore::fault {

namespace {

// Emits `proto` twice, scoped to the fetch protocol: once for requests
// (exact tag) and once for the reply tag space. Setup traffic (ring
// replication, write-meta forwards) stays untouched — its receives block
// without timeout and must always complete.
void push_fetch_scoped(std::vector<MessageRule>& out, MessageRule proto) {
  proto.tag = mpi::kTagFetch;
  proto.tag_min = proto.tag_max = -1;
  out.push_back(proto);
  proto.tag = kAnyTag;
  proto.tag_min = mpi::kFetchReplyTagBase;
  // Capped below the cluster reply space so fetch-scoped chaos never
  // bleeds into the metadata cluster's replies (which have their own
  // churn builder).
  proto.tag_max = mpi::kClusterReplyTagBase - 1;
  out.push_back(proto);
}

// Emits `proto` twice, scoped to the metadata-cluster protocol: requests
// (gossip .. list-dir; NOT the one-way shard push or the stop token, see
// fault_plan.hpp) and the cluster reply tag space.
void push_cluster_scoped(std::vector<MessageRule>& out, MessageRule proto) {
  proto.tag = kAnyTag;
  proto.tag_min = mpi::kTagGossip;
  proto.tag_max = mpi::kTagListDir;
  out.push_back(proto);
  proto.tag_min = mpi::kClusterReplyTagBase;
  proto.tag_max = std::numeric_limits<int>::max();
  out.push_back(proto);
}

}  // namespace

bool MessageRule::matches(int s, int d, int t) const {
  if (src != kAnyRank && s != src) return false;
  if (dest != kAnyRank && d != dest) return false;
  if (tag != kAnyTag) return t == tag;
  if (tag_min >= 0 && tag_max >= tag_min) return t >= tag_min && t <= tag_max;
  return true;
}

bool BackendRule::matches(int rank_in, std::string_view path) const {
  if (rank != kAnyRank && rank_in != rank) return false;
  return path_prefix.empty() || path.substr(0, path_prefix.size()) == path_prefix;
}

FaultPlan& FaultPlan::with_seed(std::uint64_t s) {
  seed = s;
  return *this;
}

FaultPlan& FaultPlan::lossy_links(double prob) {
  MessageRule r;
  r.drop_prob = prob;
  push_fetch_scoped(messages, r);
  return *this;
}

FaultPlan& FaultPlan::delayed_links(double prob, int ms) {
  MessageRule r;
  r.delay_prob = prob;
  r.delay_ms = ms;
  push_fetch_scoped(messages, r);
  return *this;
}

FaultPlan& FaultPlan::duplicating_links(double prob) {
  MessageRule r;
  r.dup_prob = prob;
  push_fetch_scoped(messages, r);
  return *this;
}

FaultPlan& FaultPlan::corrupt_from(int src, int tag_min, int tag_max, double prob) {
  MessageRule r;
  r.src = src;
  r.tag_min = tag_min;
  r.tag_max = tag_max;
  r.corrupt_prob = prob;
  messages.push_back(r);
  return *this;
}

FaultPlan& FaultPlan::kill_daemon_after(int rank, std::uint64_t fetches) {
  DaemonRule r;
  r.rank = rank;
  r.crash_after_fetches = fetches;
  daemons.push_back(r);
  return *this;
}

FaultPlan& FaultPlan::crash_window(int rank, double at_vsec, double until_vsec) {
  DaemonRule r;
  r.rank = rank;
  r.crash_at_vsec = at_vsec;
  r.restart_at_vsec = until_vsec;
  daemons.push_back(r);
  return *this;
}

FaultPlan& FaultPlan::straggler(int rank, double network_mult, double storage_mult) {
  stragglers.push_back(StragglerRule{rank, network_mult, storage_mult});
  return *this;
}

FaultPlan FaultPlan::chaos_from_seed(std::uint64_t seed, int nranks) {
  Rng rng(seed ^ 0xC4A05F00Dull);
  FaultPlan plan;
  plan.seed = seed;
  // Lossy fabric: 5-20% drop keeps retries busy while a deep retry budget
  // against even a single surviving replica still reaches the data with
  // overwhelming probability (worst case ~0.5 per-attempt failure odds).
  plan.lossy_links(0.05 + 0.15 * rng.next_double());
  plan.delayed_links(0.10 + 0.20 * rng.next_double(),
                     1 + static_cast<int>(rng.next_below(4)));
  plan.duplicating_links(0.05 + 0.10 * rng.next_double());
  // Light payload corruption across the fetch protocol; the request/reply
  // CRCs turn these into retryable attempts rather than wrong bytes.
  {
    MessageRule r;
    r.corrupt_prob = 0.08 * rng.next_double();
    push_fetch_scoped(plan.messages, r);
  }
  if (nranks > 1) {
    const int slow = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nranks)));
    const double mult = 2.0 + 2.0 * rng.next_double();
    plan.straggler(slow, mult, mult);
    if (nranks >= 3) {
      // One daemon dies after a short warm-up; single-ring replicas plus
      // failover_hops >= 2 keep every file reachable.
      const int dead = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nranks)));
      plan.kill_daemon_after(dead, 3 + rng.next_below(8));
    }
  }
  return plan;
}

FaultPlan FaultPlan::membership_churn_from_seed(std::uint64_t seed, int nranks) {
  Rng rng(seed ^ 0xC1A57E55ull);
  FaultPlan plan;
  plan.seed = seed;
  (void)nranks;  // the mix is rank-agnostic; kept for signature symmetry
  // Delays and duplicates across the whole cluster protocol: handlers are
  // idempotent and clients fail over, so reordering cannot wedge anything.
  {
    MessageRule r;
    r.delay_prob = 0.15 + 0.25 * rng.next_double();
    r.delay_ms = 1 + static_cast<int>(rng.next_below(5));
    push_cluster_scoped(plan.messages, r);
  }
  {
    MessageRule r;
    r.dup_prob = 0.05 + 0.15 * rng.next_double();
    push_cluster_scoped(plan.messages, r);
  }
  // Gossip may vanish outright: the membership view is a CRDT and every
  // later round re-carries the full state.
  {
    MessageRule r;
    r.tag = mpi::kTagGossip;
    r.drop_prob = 0.10 + 0.20 * rng.next_double();
    plan.messages.push_back(r);
  }
  // Corrupted cluster requests and replies are rejected by the envelope
  // crc and surface as timeouts — the client tries the next replica, and
  // a corrupted gossip push is dropped (later rounds re-carry it).
  {
    MessageRule r;
    r.corrupt_prob = 0.05 * rng.next_double();
    push_cluster_scoped(plan.messages, r);
  }
  return plan;
}

std::uint64_t fault_seed_from_env(std::uint64_t fallback) {
  const char* env = std::getenv("FANSTORE_FAULT_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 0);
  if (end == env || (end != nullptr && *end != '\0')) return fallback;
  return static_cast<std::uint64_t>(v);
}

}  // namespace fanstore::fault
