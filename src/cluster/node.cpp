#include "cluster/node.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "fault/injector.hpp"
#include "format/file_stat.hpp"

namespace fanstore::cluster {

namespace {

/// Appends `extra` to `out`, keeping order and skipping duplicates — the
/// candidate lists stay small (<= members), so linear scans beat a set.
void append_unique(std::vector<int>& out, const std::vector<int>& extra) {
  for (const int r : extra) {
    if (std::find(out.begin(), out.end(), r) == out.end()) out.push_back(r);
  }
}

}  // namespace

ClusterNode::Metrics::Metrics(obs::MetricsRegistry& m)
    : gossip_sent(m.counter("cluster.gossip_sent")),
      gossip_merged(m.counter("cluster.gossip_merged")),
      view_changes(m.counter("cluster.view_changes")),
      ring_rebuilds(m.counter("cluster.ring_rebuilds")),
      meta_served(m.counter("cluster.meta_served")),
      lookups_remote(m.counter("cluster.lookups_remote")),
      lookup_cache_hits(m.counter("cluster.lookup_cache_hits")),
      lookup_misses(m.counter("cluster.lookup_misses")),
      sync_rounds(m.counter("cluster.sync_rounds")),
      shards_pulled(m.counter("cluster.shards_pulled")),
      sync_bytes(m.counter("cluster.sync_bytes")),
      shards_dropped(m.counter("cluster.shards_dropped")),
      push_bytes(m.counter("cluster.push_bytes")),
      merge_skipped(m.counter("cluster.merge_skipped")),
      crc_rejects(m.counter("cluster.crc_rejects")) {}

ClusterNode::ClusterNode(mpi::Comm comm, NodeOptions options)
    : comm_(comm),
      options_(std::move(options)),
      owned_metrics_(options_.metrics != nullptr
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>()),
      m_(options_.metrics != nullptr ? *options_.metrics : *owned_metrics_) {
  if (options_.replication_factor < 1) {
    throw std::invalid_argument("ClusterNode: replication_factor must be >= 1");
  }
}

// --- serving ---------------------------------------------------------------

int ClusterNode::poll() {
  int handled = 0;
  while (auto msg = comm_.try_recv_if(
             [](const mpi::Message& m) { return mpi::is_cluster_tag(m.tag); })) {
    // A simulation runs no daemon and no virtual clock: liveness is the
    // fault script's count triggers and manual kills.
    if (options_.fault == nullptr ||
        options_.fault->daemon_alive(comm_.rank(), /*vnow=*/-1.0)) {
      handle(*msg);
    }
    ++handled;
  }
  return handled;
}

void ClusterNode::handle(const mpi::Message& msg) {
  const auto req = mpi::unseal(as_view(msg.payload));
  if (!req) {
    m_.crc_rejects.inc();  // dropped, never merged: the caller times out
    return;
  }
  Bytes out = mpi::envelope(req->reply_tag);
  switch (msg.tag) {
    case mpi::kTagGossip: handle_gossip(*req, out); break;
    case mpi::kTagMetaLookup: handle_meta_lookup(req->body, out); break;
    case mpi::kTagShardDigest: handle_shard_digest(out); break;
    case mpi::kTagShardPull: handle_shard_pull(req->body, out); break;
    case mpi::kTagListPaths: handle_list_paths(out); break;
    case mpi::kTagListDir: handle_list_dir(req->body, out); break;
    case mpi::kTagMetaPush: merge_push_body(req->body); break;
    default: return;  // unknown cluster tag: ignore (forward compatibility)
  }
  // Gossip and shard pushes are one-way (reply tag 0).
  if (req->reply_tag == 0) return;
  comm_.send(msg.source, static_cast<int>(req->reply_tag),
             mpi::seal(std::move(out)));
}

// --- view / ring maintenance ----------------------------------------------

void ClusterNode::rebuild_ring_locked() {
  prev_ring_ = ring_;
  ring_ = HashRing(view_.ring_members(), options_.replication_factor);
  update_full_locked();
  lookup_cache_.invalidate();
  m_.ring_rebuilds.inc();
}

void ClusterNode::update_full_locked() {
  bool full = true;
  for (std::uint32_t s = 0; s < kShards && full; ++s) {
    full = ring_.is_owner(comm_.rank(), s) && prev_ring_.is_owner(comm_.rank(), s);
  }
  full_.store(full);
}

bool ClusterNode::merge_view(const MembershipView& incoming) {
  sync::MutexLock lock(mu_);
  const auto before = view_.ring_members();
  if (!view_.merge(incoming)) return false;
  m_.view_changes.inc();
  if (view_.ring_members() != before) rebuild_ring_locked();
  return true;
}

void ClusterNode::bootstrap(const std::vector<int>& members) {
  sync::MutexLock lock(mu_);
  for (const int r : members) {
    view_.apply(r, MemberInfo{1, MemberState::kJoined});
  }
  rebuild_ring_locked();
  prev_ring_ = ring_;  // no older placement exists at bootstrap
  update_full_locked();
}

void ClusterNode::gossip_now() {
  Bytes blob;
  std::vector<int> targets;
  {
    sync::MutexLock lock(mu_);
    blob = view_.serialize();
    targets = view_.serving_members();
  }
  Bytes msg = mpi::envelope(0);  // a push: no reply wanted
  msg.insert(msg.end(), blob.begin(), blob.end());
  msg = mpi::seal(std::move(msg));
  for (const int dest : targets) {
    if (dest == comm_.rank()) continue;
    comm_.send(dest, mpi::kTagGossip, msg);
    m_.gossip_sent.inc();
  }
}

bool ClusterNode::join(const std::vector<int>& seeds) {
  Bytes announce;
  {
    sync::MutexLock lock(mu_);
    const MemberInfo self = view_.get(comm_.rank());
    // Bumping past any prior incarnation also refutes a false/stale death.
    view_.apply(comm_.rank(),
                MemberInfo{self.incarnation + 1, MemberState::kJoined});
    rebuild_ring_locked();
    announce = view_.serialize();
  }
  m_.view_changes.inc();
  bool reached = false;
  for (const int seed : seeds) {
    if (seed == comm_.rank()) continue;
    // A call, not a push: the reply teaches us the seed's view.
    const mpi::Reply reply = call(seed, mpi::kTagGossip, as_view(announce));
    m_.gossip_sent.inc();
    if (!reply.ok()) continue;
    reached = true;
    try {
      merge_view(MembershipView::deserialize(reply.body()));
    } catch (const std::invalid_argument&) {
      // corrupted view blob: ignore; another seed or gossip round fixes it
    }
  }
  if (!reached) return false;
  rebalance(/*drop_unowned=*/false);
  gossip_now();  // non-seed members learn about us
  return true;
}

void ClusterNode::leave() {
  {
    sync::MutexLock lock(mu_);
    const MemberInfo self = view_.get(comm_.rank());
    view_.apply(comm_.rank(),
                MemberInfo{self.incarnation + 1, MemberState::kLeaving});
    rebuild_ring_locked();
  }
  m_.view_changes.inc();
  gossip_now();
}

void ClusterNode::declare(int rank, MemberState state) {
  bool changed = false;
  {
    sync::MutexLock lock(mu_);
    const MemberInfo cur = view_.get(rank);
    // Same incarnation + severity merge: the subject can always refute a
    // false accusation by re-announcing at incarnation + 1.
    changed = view_.apply(rank, MemberInfo{cur.incarnation, state});
    if (changed) {
      m_.view_changes.inc();
      rebuild_ring_locked();
    }
  }
  if (changed) gossip_now();
}

MembershipView ClusterNode::view() const {
  sync::MutexLock lock(mu_);
  return view_;
}

std::uint64_t ClusterNode::view_digest() const {
  sync::MutexLock lock(mu_);
  return view_.digest();
}

std::vector<int> ClusterNode::shard_owners(std::uint32_t shard) const {
  sync::MutexLock lock(mu_);
  return ring_.shard_owners(shard);
}

bool ClusterNode::owns_shard(std::uint32_t shard) const {
  sync::MutexLock lock(mu_);
  return ring_.is_owner(comm_.rank(), shard);
}

// --- sharded metadata ------------------------------------------------------

void ClusterNode::exchange_initial() {
  std::vector<int> members;
  HashRing ring;
  {
    sync::MutexLock lock(mu_);
    members = view_.ring_members();
    ring = ring_;
  }
  const bool participant =
      std::find(members.begin(), members.end(), comm_.rank()) != members.end();
  if (!participant || members.size() < 2) return;

  // Serialize each local shard once, then concatenate per destination.
  std::vector<Bytes> shard_blobs(kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    shard_blobs[s] = store_.serialize_shard(s, kShards);
  }
  for (const int dest : members) {
    if (dest == comm_.rank()) continue;
    Bytes msg = mpi::envelope(0);
    const std::size_t head = msg.size();
    std::uint32_t count = 0;
    append_le<std::uint32_t>(msg, 0);  // patched below
    for (std::uint32_t s = 0; s < kShards; ++s) {
      // An empty shard serializes to just its [u32 count=0] header.
      if (shard_blobs[s].size() <= 4) continue;
      if (!ring.is_owner(dest, s)) continue;
      append_le<std::uint32_t>(msg, s);
      append_le<std::uint32_t>(msg, static_cast<std::uint32_t>(shard_blobs[s].size()));
      msg.insert(msg.end(), shard_blobs[s].begin(), shard_blobs[s].end());
      ++count;
    }
    store_le<std::uint32_t>(msg.data() + head, count);
    m_.push_bytes.inc(msg.size() - head);
    comm_.send(dest, mpi::kTagMetaPush, mpi::seal(std::move(msg)));
  }
  // Symmetric: every participant pushed to every other, so exactly
  // members-1 pushes are inbound. Blocking-recv them (no collective — a
  // world may hold spare ranks that are not members yet). A push that
  // fails its crc is dropped and counted; anti-entropy pulls its shards.
  for (std::size_t i = 0; i + 1 < members.size(); ++i) {
    const mpi::Message msg = comm_.recv(mpi::kAnySource, mpi::kTagMetaPush);
    const auto push = mpi::unseal(as_view(msg.payload));
    if (!push) {
      m_.crc_rejects.inc();
      continue;
    }
    merge_push_body(push->body);
  }
}

std::size_t ClusterNode::merge_push_body(ByteView body) {
  if (body.size() < 4) return 0;
  const std::uint32_t count = load_le<std::uint32_t>(body.data());
  std::size_t pos = 4;
  std::size_t applied_total = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (pos + 8 > body.size()) return applied_total;  // truncated: stop
    const std::uint32_t len = load_le<std::uint32_t>(body.data() + pos + 4);
    pos += 8;
    if (pos + len > body.size()) return applied_total;
    const ByteView blob = body.subspan(pos, len);
    pos += len;
    std::size_t applied = 0;
    try {
      applied = store_.merge_shard(blob);
    } catch (const std::invalid_argument&) {
      continue;  // corrupted shard blob: anti-entropy re-pulls it intact
    }
    applied_total += applied;
    const std::uint32_t entries = len >= 4 ? load_le<std::uint32_t>(blob.data()) : 0;
    if (entries > applied) m_.merge_skipped.inc(entries - applied);
  }
  return applied_total;
}

SyncStats ClusterNode::anti_entropy() {
  SyncStats st;
  std::vector<std::uint32_t> owned;
  std::vector<int> peers;
  {
    sync::MutexLock lock(mu_);
    for (std::uint32_t s = 0; s < kShards; ++s) {
      if (ring_.is_owner(comm_.rank(), s)) owned.push_back(s);
    }
    peers = view_.serving_members();
  }
  m_.sync_rounds.inc();
  if (owned.empty()) return st;
  for (const int peer : peers) {
    if (peer == comm_.rank()) continue;
    const mpi::Reply reply = call(peer, mpi::kTagShardDigest, {}, kAttempts);
    ++st.digest_rpcs;
    const ByteView digests = reply.body();
    if (digests.size() < 4) continue;
    const std::uint32_t remote_n = load_le<std::uint32_t>(digests.data());
    if (remote_n != kShards ||
        digests.size() < 4 + 8 * static_cast<std::size_t>(remote_n)) {
      continue;  // mismatched shard count: differently configured peer
    }
    // Delta selection: pull only owned shards whose remote digest is
    // nonzero and differs from ours — recomputed against the merges from
    // earlier peers so the same delta is never transferred twice.
    Bytes req;
    std::vector<std::uint32_t> want;
    for (const std::uint32_t s : owned) {
      const std::uint64_t theirs = load_le<std::uint64_t>(digests.data() + 4 + 8 * s);
      if (theirs == 0) continue;
      if (theirs == store_.shard_digest(s, kShards)) continue;
      want.push_back(s);
    }
    if (want.empty()) continue;
    append_le<std::uint32_t>(req, static_cast<std::uint32_t>(want.size()));
    for (const std::uint32_t s : want) append_le<std::uint32_t>(req, s);
    const mpi::Reply pulled = call(peer, mpi::kTagShardPull, as_view(req), kAttempts);
    if (!pulled.ok()) continue;
    st.bytes_pulled += pulled.body().size();
    m_.sync_bytes.inc(pulled.body().size());
    const std::size_t applied = merge_push_body(pulled.body());
    st.entries_applied += applied;
    st.shards_pulled += want.size();
    m_.shards_pulled.inc(want.size());
  }
  st.changed = st.entries_applied > 0;
  return st;
}

RebalanceStats ClusterNode::rebalance(bool drop_unowned) {
  RebalanceStats rs;
  rs.sync = anti_entropy();
  if (!drop_unowned) return rs;
  HashRing ring;
  {
    sync::MutexLock lock(mu_);
    ring = ring_;
  }
  for (std::uint32_t s = 0; s < kShards; ++s) {
    if (ring.is_owner(comm_.rank(), s)) continue;
    if (store_.shard_digest(s, kShards) == 0) continue;
    // Push-then-drop: hand the shard to each current owner first, so the
    // drop can never lose the only copy of an entry (merges are
    // idempotent — owners that already converged apply nothing).
    const Bytes blob = store_.serialize_shard(s, kShards);
    Bytes msg = mpi::envelope(0);
    append_le<std::uint32_t>(msg, 1);
    append_le<std::uint32_t>(msg, s);
    append_le<std::uint32_t>(msg, static_cast<std::uint32_t>(blob.size()));
    msg.insert(msg.end(), blob.begin(), blob.end());
    const std::size_t body_bytes = msg.size() - 4;
    msg = mpi::seal(std::move(msg));
    bool handed_off = false;
    for (const int owner : ring.shard_owners(s)) {
      if (owner == comm_.rank()) continue;
      comm_.send(owner, mpi::kTagMetaPush, msg);
      m_.push_bytes.inc(body_bytes);
      handed_off = true;
    }
    if (!handed_off) continue;  // no live owner: keep the shard
    // Drop the whole shard, convenience copies included: any entry left
    // behind would keep this shard's digest nonzero and differing from the
    // owners' forever, so anti-entropy would re-transfer the same bytes
    // every round. The converged invariant is exact: a shard's entries
    // live on its `replication_factor` owners and nowhere else.
    store_.drop_shard(s, kShards);
    ++rs.shards_dropped;
    m_.shards_dropped.inc();
  }
  return rs;
}

std::vector<std::string> ClusterNode::enumerate_paths() {
  if (!sharded()) return store_.all_paths();
  HashRing ring;
  std::vector<int> peers;
  {
    sync::MutexLock lock(mu_);
    ring = ring_;
    peers = view_.serving_members();
  }
  std::vector<std::string> out;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    if (ring.primary(s) == comm_.rank()) {
      const auto mine = store_.shard_paths(s, kShards);
      out.insert(out.end(), mine.begin(), mine.end());
    }
  }
  for (const int peer : peers) {
    if (peer == comm_.rank()) continue;
    const mpi::Reply reply = call(peer, mpi::kTagListPaths, {}, kAttempts);
    const ByteView body = reply.body();
    if (body.size() < 4) continue;
    const std::uint32_t count = load_le<std::uint32_t>(body.data());
    std::size_t pos = 4;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (pos + 2 > body.size()) break;
      const std::uint16_t len = load_le<std::uint16_t>(body.data() + pos);
      pos += 2;
      if (pos + len > body.size()) break;
      out.emplace_back(reinterpret_cast<const char*>(body.data() + pos), len);
      pos += len;
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// --- lookups ---------------------------------------------------------------

std::optional<format::FileStat> ClusterNode::lookup(const std::string& path) {
  if (auto local = store_.lookup(path)) return local;
  if (!sharded()) return std::nullopt;
  const auto remote = resolve(path);
  if (!remote) return std::nullopt;
  return remote->stat;
}

std::vector<int> ClusterNode::meta_owners(const std::string& path) {
  sync::MutexLock lock(mu_);
  return ring_.owners(path, kShards);
}

std::optional<VersionedStat> ClusterNode::local_answer(
    const std::string& path) const {
  if (auto found = store_.lookup_versioned(path)) return found;
  // Directories are synthesized, not stored: any rank indexing children
  // of `path` can answer with an unversioned directory stat.
  if (const auto any = store_.lookup(path)) return VersionedStat{*any, 0, 0};
  return std::nullopt;
}

std::optional<VersionedStat> ClusterNode::resolve(const std::string& path) {
  if (!sharded()) return local_answer(path);
  std::uint64_t epoch = 0;
  if (auto hit = lookup_cache_.find(path, &epoch)) {
    m_.lookup_cache_hits.inc();
    return hit;
  }
  const std::uint32_t shard = shard_of(path, kShards);
  std::vector<int> candidates;
  MembershipView view;
  {
    sync::MutexLock lock(mu_);
    candidates = ring_.shard_owners(shard);
    // Mid-rebalance a new owner may not have pulled the shard yet; the
    // previous placement still holds it. Any serving rank last: directory
    // entries are synthesized on whichever ranks index the children.
    append_unique(candidates, prev_ring_.shard_owners(shard));
    append_unique(candidates, view_.serving_members());
    view = view_;
  }
  bool sent = false;
  // Only a verified "not found" rules a candidate out: one whose request
  // or reply was lost is asked again after the others, up to kAttempts
  // times in all.
  for (int attempt = 0; attempt < kAttempts && !candidates.empty(); ++attempt) {
    std::vector<int> lost;
    for (const int dest : candidates) {
      if (dest == comm_.rank()) continue;
      if (view.get(dest).state == MemberState::kDead) continue;
      if (!sent) m_.lookups_remote.inc();
      sent = true;
      const mpi::Reply reply = call(dest, mpi::kTagMetaLookup, as_view(path));
      if (!reply.ok()) {
        lost.push_back(dest);
        continue;
      }
      const ByteView body = reply.body();
      if (body.empty() || body[0] != kMetaOk ||
          body.size() < 1 + 8 + 4 + format::kStatBytes) {
        continue;  // not found there (or malformed): try the next candidate
      }
      VersionedStat vs;
      vs.version = load_le<std::uint64_t>(body.data() + 1);
      vs.writer = load_le<std::uint32_t>(body.data() + 9);
      vs.stat = format::FileStat::deserialize(body.data() + 13);
      lookup_cache_.insert(path, vs, epoch);
      return vs;
    }
    candidates = std::move(lost);
  }
  m_.lookup_misses.inc();
  return std::nullopt;
}

std::vector<posixfs::Dirent> ClusterNode::list_union(const std::string& dir) {
  std::vector<posixfs::Dirent> out = store_.list(dir);
  if (!sharded()) return out;
  std::vector<int> peers;
  {
    sync::MutexLock lock(mu_);
    peers = view_.serving_members();
  }
  auto have = [&out](const std::string& name) {
    return std::any_of(out.begin(), out.end(),
                       [&name](const posixfs::Dirent& d) { return d.name == name; });
  };
  for (const int peer : peers) {
    if (peer == comm_.rank()) continue;
    const mpi::Reply reply = call(peer, mpi::kTagListDir, as_view(dir), kAttempts);
    const ByteView body = reply.body();
    if (body.size() < 5) continue;
    const std::uint32_t count = load_le<std::uint32_t>(body.data() + 1);
    std::size_t pos = 5;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (pos + 3 > body.size()) break;
      const std::uint16_t len = load_le<std::uint16_t>(body.data() + pos);
      const bool is_dir = body[pos + 2] != 0;
      pos += 3;
      if (pos + len > body.size()) break;
      std::string name(reinterpret_cast<const char*>(body.data() + pos), len);
      pos += len;
      if (!have(name)) {
        out.push_back(posixfs::Dirent{
            std::move(name),
            is_dir ? format::FileType::kDirectory : format::FileType::kRegular});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const posixfs::Dirent& a, const posixfs::Dirent& b) {
              return a.name < b.name;
            });
  return out;
}

bool ClusterNode::dir_exists_union(const std::string& dir) {
  if (store_.dir_exists(dir)) return true;
  if (!sharded()) return false;
  std::vector<int> peers;
  {
    sync::MutexLock lock(mu_);
    peers = view_.serving_members();
  }
  for (const int peer : peers) {
    if (peer == comm_.rank()) continue;
    const mpi::Reply reply = call(peer, mpi::kTagListDir, as_view(dir), kAttempts);
    if (!reply.body().empty() && reply.body()[0] != 0) return true;
  }
  return false;
}

// --- request handlers ------------------------------------------------------

void ClusterNode::handle_gossip(const mpi::Unsealed& req, Bytes& out) {
  MembershipView incoming;
  try {
    incoming = MembershipView::deserialize(req.body);
  } catch (const std::invalid_argument&) {
    return;  // malformed gossip: a later round carries the same state
  }
  if (merge_view(incoming)) m_.gossip_merged.inc();
  if (req.reply_tag == 0) return;  // a push, not join()'s push-pull
  sync::MutexLock lock(mu_);
  const Bytes view_blob = view_.serialize();
  out.insert(out.end(), view_blob.begin(), view_blob.end());
}

void ClusterNode::handle_meta_lookup(ByteView body, Bytes& out) const {
  m_.meta_served.inc();
  const std::optional<VersionedStat> found = local_answer(fanstore::to_string(body));
  if (!found) {
    out.push_back(kMetaNotFound);
    return;
  }
  out.push_back(kMetaOk);
  append_le<std::uint64_t>(out, found->version);
  append_le<std::uint32_t>(out, found->writer);
  const std::size_t at = out.size();
  out.resize(at + format::kStatBytes);
  found->stat.serialize(out.data() + at);
}

void ClusterNode::handle_shard_digest(Bytes& out) const {
  append_le<std::uint32_t>(out, kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    append_le<std::uint64_t>(out, store_.shard_digest(s, kShards));
  }
}

void ClusterNode::handle_shard_pull(ByteView body, Bytes& out) const {
  const std::uint32_t listed = static_cast<std::uint32_t>(body.size() / 4);
  const std::uint32_t count =
      listed == 0 ? 0 : std::min(load_le<std::uint32_t>(body.data()), listed - 1);
  const std::size_t head = out.size();
  std::uint32_t emitted = 0;
  append_le<std::uint32_t>(out, 0);  // patched below
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t s = load_le<std::uint32_t>(body.data() + 4 + 4 * i);
    if (s >= kShards) continue;
    const Bytes blob = store_.serialize_shard(s, kShards);
    append_le<std::uint32_t>(out, s);
    append_le<std::uint32_t>(out, static_cast<std::uint32_t>(blob.size()));
    out.insert(out.end(), blob.begin(), blob.end());
    ++emitted;
  }
  store_le<std::uint32_t>(out.data() + head, emitted);
}

void ClusterNode::handle_list_paths(Bytes& out) const {
  HashRing ring;
  {
    sync::MutexLock lock(mu_);
    ring = ring_;
  }
  const std::size_t head = out.size();
  std::uint32_t count = 0;
  append_le<std::uint32_t>(out, 0);  // patched below
  for (std::uint32_t s = 0; s < kShards; ++s) {
    if (ring.primary(s) != comm_.rank()) continue;
    for (const std::string& p : store_.shard_paths(s, kShards)) {
      append_le<std::uint16_t>(out, static_cast<std::uint16_t>(p.size()));
      out.insert(out.end(), p.begin(), p.end());
      ++count;
    }
  }
  store_le<std::uint32_t>(out.data() + head, count);
}

void ClusterNode::handle_list_dir(ByteView body, Bytes& out) const {
  const std::string dir = fanstore::to_string(body);
  out.push_back(store_.dir_exists(dir) ? 1 : 0);
  const auto entries = store_.list(dir);
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(entries.size()));
  for (const posixfs::Dirent& d : entries) {
    append_le<std::uint16_t>(out, static_cast<std::uint16_t>(d.name.size()));
    out.push_back(d.type == format::FileType::kDirectory ? 1 : 0);
    out.insert(out.end(), d.name.begin(), d.name.end());
  }
}

// --- RPC client ------------------------------------------------------------

mpi::Reply ClusterNode::call(int dest, int tag, ByteView body, int attempts) {
  mpi::Reply reply;
  for (int i = 0; i < attempts && !reply.ok(); ++i) {
    reply = caller_.call(dest, tag, body, wait_);
    if (reply.status == mpi::CallStatus::kCorrupt) m_.crc_rejects.inc();
  }
  return reply;
}

}  // namespace fanstore::cluster
