// FanStore daemon (§V-A, §V-D): one service thread per rank that answers
// remote compressed-file fetches and accepts forwarded write metadata.
//
// Wire protocol (all messages over mpi::Comm):
//   kTagFetch      req : [u32 reply_tag][u32 path_crc][path bytes]
//   reply_tag      rsp : [u8 status][u16 compressor][u64 raw_size]
//                        [u32 crc][data…]
//   kTagWriteMeta  one-way: [u16 path_len][path][144 B stat]
//                  [u64 version][u32 writer] — a written file's metadata,
//                  sent to every owner of its shard; a payload without the
//                  version suffix is malformed and dropped
//   kTagShutdown   one-way, self-addressed by stop()
//
// Both directions carry a CRC-32 so a corrupted message is *detected* and
// becomes a retryable failure instead of silent data corruption (request:
// crc over the path; reply: crc over the 11-byte header and the data). A
// request whose path crc fails gets a kFetchMalformed reply — the reader
// treats that as retryable, never as a definitive miss.
#pragma once

#include <atomic>
#include <memory>
#include <thread>

#include "core/backend.hpp"
#include "cluster/metadata_store.hpp"
#include "mpi/comm.hpp"
#include "obs/metrics.hpp"
#include "simnet/virtual_clock.hpp"
#include "util/sync.hpp"

namespace fanstore::fault {
class FaultInjector;
}

namespace fanstore::core {

// Message tags (FanStore reserves this range of the tag space).
constexpr int kTagFetch = 100;
constexpr int kTagWriteMeta = 101;
constexpr int kTagShutdown = 102;
constexpr int kTagRingCopy = 103;
constexpr int kReplyTagBase = 1000;

// Fetch reply status codes.
constexpr std::uint8_t kFetchOk = 0;
constexpr std::uint8_t kFetchNotFound = 1;
constexpr std::uint8_t kFetchMalformed = 2;

// Fixed header sizes (see the wire protocol above).
constexpr std::size_t kFetchRequestHeaderBytes = 8;   // reply_tag + path_crc
constexpr std::size_t kFetchReplyHeaderBytes = 15;    // status..crc

/// Encodes/decodes the fetch request payload.
Bytes encode_fetch_request(std::uint32_t reply_tag, std::string_view path);

/// Encodes the fetch reply payload (computes and embeds the wire crc).
Bytes encode_fetch_reply(std::uint8_t status, const Blob* blob, std::uint64_t raw_size);

/// True when `payload` is a structurally valid fetch reply whose embedded
/// crc matches its header + data bytes.
bool fetch_reply_crc_ok(ByteView payload);

/// Encodes a write-metadata forward, applied via deterministic
/// last-writer-wins at the receiving shard owner.
Bytes encode_write_meta(std::string_view path, const cluster::VersionedStat& entry);

class Daemon {
 public:
  /// `metrics` receives the "daemon.*" counters and the request-service
  /// latency histogram; nullptr gives the daemon a private registry.
  /// Instance injects its per-rank registry so one snapshot covers
  /// fs + cache + daemon.
  /// `injector` (may be nullptr) scripts crash / hang / restart behaviour:
  /// a "dead" daemon silently drops fetch requests, exactly what a crashed
  /// process looks like from the wire. `clock` feeds virtual-clock crash
  /// windows (nullptr disables them; count-based triggers still work).
  Daemon(mpi::Comm comm, cluster::MetadataStore* meta,
         CompressedBackend* backend, obs::MetricsRegistry* metrics = nullptr,
         fault::FaultInjector* injector = nullptr,
         simnet::VirtualClock* clock = nullptr);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void start() EXCLUDES(lifecycle_mu_);

  /// Idempotent; sends a self-addressed shutdown message and joins.
  void stop() EXCLUDES(lifecycle_mu_);

 private:
  void serve();
  void handle_fetch(const mpi::Message& msg);
  void handle_write_meta(const mpi::Message& msg);

  mpi::Comm comm_;
  cluster::MetadataStore* meta_;  // internally synchronized
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
  obs::Histogram* serve_us_;
};

}  // namespace fanstore::core
