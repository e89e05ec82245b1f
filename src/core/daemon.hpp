// FanStore daemon (§V-A, §V-D): one service thread per rank, the rank's
// only receive loop for rank-to-rank requests. It answers remote
// compressed-file fetches, accepts forwarded write metadata, and hands the
// metadata cluster's requests and shard pushes (mpi::kTagGossip..
// kTagMetaPush) to cluster::ClusterNode::handle. It never takes a reply
// tag or the ring copy (Instance::replicate_ring receives that itself).
//
// Wire protocol: every message is an mpi::envelope (mpi/envelope.hpp),
// [u32 reply_tag][body][u32 crc32]; the data bodies are
//   mpi::kTagFetch      req : [path bytes]
//   reply_tag           rsp : [u8 status][u16 compressor][u64 raw_size][data…]
//   mpi::kTagWriteMeta  one-way: [u16 path_len][path][144 B stat]
//                       [u64 version][u32 writer] — a written file's
//                       metadata, sent to every owner of its shard; a body
//                       without the version suffix is malformed and dropped
//   mpi::kTagShutdown   self-addressed by stop(), no envelope
// (the cluster bodies are ClusterNode's; see cluster/node.cpp).
//
// Liveness is decided once per message, before dispatch: when the fault
// injector says this rank is dead (on the rank's virtual clock), the loop
// drops the request, whatever its tag — exactly what a crashed process
// looks like from the wire.
//
// A fetch request that fails its crc (or names no path) is answered
// kFetchMalformed at the reply tag it claims — the reader treats that as
// retryable, never as a definitive miss, because the path we would parse
// may not be the path that was asked for. A write-meta forward that fails
// its crc is dropped and counted in daemon.crc_rejects, never applied.
#pragma once

#include <atomic>
#include <memory>
#include <thread>

#include "core/backend.hpp"
#include "cluster/node.hpp"
#include "mpi/envelope.hpp"
#include "obs/metrics.hpp"
#include "simnet/virtual_clock.hpp"
#include "util/sync.hpp"

namespace fanstore::fault {
class FaultInjector;
}

namespace fanstore::core {

// Fetch reply status codes.
constexpr std::uint8_t kFetchOk = 0;
constexpr std::uint8_t kFetchNotFound = 1;
constexpr std::uint8_t kFetchMalformed = 2;
/// Bytes of a fetch reply body before the data: status, compressor, raw_size.
constexpr std::size_t kFetchReplyFixedBytes = 11;

/// A write-metadata forward, one-way and ready to mpi::seal(); the
/// receiving shard owner applies it by deterministic last-writer-wins.
Bytes encode_write_meta(std::string_view path, const cluster::VersionedStat& entry);

class Daemon {
 public:
  /// `metrics` receives the "daemon.*" counters and the request-service
  /// latency histogram; nullptr gives the daemon a private registry.
  /// Instance injects its per-rank registry so one snapshot covers
  /// fs + cache + daemon.
  /// `injector` (may be nullptr) scripts crash / restart behaviour: a
  /// "dead" daemon silently drops every request. `clock` feeds
  /// virtual-clock crash windows (nullptr disables them; count-based
  /// triggers still work). `cluster` answers the metadata requests and
  /// owns the store that fetch replies and write-meta forwards use.
  Daemon(mpi::Comm comm, cluster::ClusterNode& cluster,
         CompressedBackend* backend, obs::MetricsRegistry* metrics = nullptr,
         fault::FaultInjector* injector = nullptr,
         simnet::VirtualClock* clock = nullptr);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void start() EXCLUDES(lifecycle_mu_);

  /// Idempotent; sends a self-addressed shutdown message and joins.
  void stop() EXCLUDES(lifecycle_mu_);

  bool running() const { return running_.load(); }

 private:
  void serve();
  void handle_fetch(const mpi::Message& msg);
  void handle_write_meta(const mpi::Message& msg);
  /// Seals the fetch reply for `reply_tag` and sends it to `dest`.
  void reply(int dest, std::uint32_t reply_tag, std::uint8_t status,
             const Blob* blob = nullptr, std::uint64_t raw_size = 0);

  mpi::Comm comm_;
  cluster::ClusterNode& cluster_;  // internally synchronized
  CompressedBackend* backend_;  // internally synchronized
  fault::FaultInjector* injector_;  // internally synchronized; may be null
  simnet::VirtualClock* clock_;     // may be null
  // Serializes start()/stop() so concurrent lifecycle calls cannot race on
  // thread_ (spawn in one thread, join in another). The service thread
  // itself never takes this lock.
  sync::Mutex lifecycle_mu_{"daemon.lifecycle_mu"};
  std::thread thread_ GUARDED_BY(lifecycle_mu_);
  std::atomic<bool> running_{false};
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // when not injected
  obs::Counter* fetches_served_;
  obs::Counter* meta_received_;
  obs::Counter* fetch_bytes_;
  obs::Counter* crc_rejects_;
  obs::Histogram* serve_us_;
};

}  // namespace fanstore::core
