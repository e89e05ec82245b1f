// FanStoreFs: the POSIX-compliant face of FanStore (§IV).
//
// Every metadata question goes to one object, the rank's
// cluster::ClusterNode (DESIGN.md §13), which owns the rank's
// MetadataStore: lookups, directory listings, and the owners a written
// file's metadata is sent to.
//
// open()  — Fig. 2: metadata lookup in RAM; compressed blob from the local
//           backend or fetched from the owner rank's daemon over the
//           interconnect; decompressed into the shared cache region.
// read()  — Fig. 3: served from the cache region.
// close() — Fig. 4: drops the pin; refcount-FIFO eviction reclaims space.
// write   — multi-read/single-write model: one writer, write-once; on
//           close the data is dumped to the local backend and the metadata
//           sent to every owner of the path's shard (§V-D; every rank under
//           full replication).
//
// Hot-path concurrency (see DESIGN.md "Hot path"): unrelated opens never
// serialize on one lock. The fd table, dir table, and writer set each have
// their own mutex; per-fd read/write/seek state is guarded by a per-file
// mutex so read() copies proceed in parallel; I/O counters are lock-free
// obs::MetricsRegistry counters ("fs.*"/"cache.*", DESIGN.md §7), read
// through metrics(); and fetch+decompress runs with no FanStoreFs lock held
// (inside the cache's single-flight loader).
//
// Observability: every open/read/close emits a TraceSpan (wall + virtual
// clock) and open/read/load/fetch latencies feed log-scale histograms.
//
// Device/network time is charged to an optional VirtualClock via the cost
// models; all data movement is real.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <set>

#include "cluster/node.hpp"
#include "compress/compressor.hpp"
#include "core/backend.hpp"
#include "core/cache.hpp"
#include "core/daemon.hpp"
#include "core/tiered_cache.hpp"
#include "mpi/comm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "posixfs/vfs.hpp"
#include "simnet/codec_speed.hpp"
#include "simnet/models.hpp"
#include "simnet/virtual_clock.hpp"
#include "util/retry.hpp"
#include "util/sync.hpp"

namespace fanstore::core {

/// What to charge to the virtual clock (disabled by default: functional use
/// and unit tests run cost-free).
struct CostConfig {
  bool enabled = false;
  simnet::StorageModel read_path = simnet::fanstore_storage();
  simnet::NetworkModel network = simnet::fdr_infiniband();
  int nodes = 1;
  /// Device model for the SSD spill tier (DESIGN.md §12): every spill
  /// write/read is charged through this on the virtual clock.
  simnet::StorageModel spill_storage = simnet::ssd_storage();
  /// When true, each remote fetch additionally charges the owner daemon's
  /// service time (request handling + backend lookup on the owner) through
  /// `remote_service` — the paper's measured local/remote read gap beyond
  /// raw wire time (Tables III/VI). Off by default so existing cost
  /// calibrations are untouched.
  bool charge_remote_service = false;
  simnet::StorageModel remote_service = simnet::fanstore_remote_service();
};

class FanStoreFs final : public posixfs::Vfs {
 public:
  struct Options {
    std::size_t cache_bytes = std::size_t{64} << 20;
    /// Lock stripes for the decompressed cache; 0 = auto (see PlainCache).
    std::size_t cache_shards = 0;
    /// Codec for output files; default "store" — checkpoints/logs are
    /// written once and rarely re-read (§II-B3). An id the registry does
    /// not know is rejected at construction (std::invalid_argument).
    compress::CompressorId write_compressor = 0;
    CostConfig cost;
    simnet::VirtualClock* clock = nullptr;  // required if cost.enabled
    /// Remote-fetch failure detection: a daemon that does not answer within
    /// this window is treated as failed; the attempt is retried with
    /// backoff (see `retry`) and then fails over to ring neighbours that
    /// may hold a replica (Instance::replicate_ring). 0 means *no timeout*
    /// — wait forever, no failover. Negative values are rejected at
    /// construction (std::invalid_argument).
    int fetch_timeout_ms = 10000;
    /// How many ring successors of the owner to try after a failed fetch.
    /// Negative values are rejected at construction.
    int failover_hops = 2;
    /// Backoff between retryable per-candidate fetch failures (timeout or
    /// CRC-rejected reply). Validated at construction.
    RetryPolicy retry;
    /// Registry receiving the "fs.*" and "cache.*" metrics. nullptr gives
    /// the fs a private registry (one per FanStoreFs; Instance injects a
    /// per-rank registry shared with its daemon).
    obs::MetricsRegistry* metrics = nullptr;
    /// Workers for parallel chunk decode of chunked-framed files
    /// (compress/chunked.hpp); 0 = hardware concurrency.
    std::size_t decode_threads = 0;
    /// When true, open() of a chunked file decodes nothing — chunks
    /// materialize on demand per read()/pread() range (partial reads of
    /// large objects stop paying whole-file decode). Default eager keeps
    /// the classic open-decompresses-everything behavior.
    bool lazy_chunked_open = false;
    /// Tiered-cache budgets (DESIGN.md §12). Both zero (the default) keeps
    /// the classic single-pool plain-RAM cache, byte for byte.
    /// Compressed-RAM tier: plain-tier victims stay resident in chunked-
    /// container form and re-decode per range on hit.
    std::size_t compressed_cache_bytes = 0;
    /// SSD-spill tier: crc-framed records on `spill_fs`, charged against
    /// cost.spill_storage on the virtual clock.
    std::size_t spill_bytes = 0;
    /// Spill device; nullptr = an internal RAM-backed stand-in.
    posixfs::Vfs* spill_fs = nullptr;
    std::string spill_root = ".fanstore-spill";
    /// Lower-tier hits before an entry's bytes move up a tier (min 1).
    std::size_t promote_after_hits = 2;
  };

  /// `cluster` answers every metadata lookup and listing, and its store
  /// takes this rank's written files; it must outlive the fs.
  FanStoreFs(mpi::Comm comm, cluster::ClusterNode* cluster,
             CompressedBackend* backend, Options options);

  // --- posixfs::Vfs ---
  int open(std::string_view path, posixfs::OpenMode mode) override;
  int close(int fd) override;
  std::int64_t read(int fd, MutByteView buf) override;
  std::int64_t pread(int fd, MutByteView buf, std::uint64_t offset) override;
  std::int64_t write(int fd, ByteView buf) override;
  std::int64_t lseek(int fd, std::int64_t offset, posixfs::Whence whence) override;
  int stat(std::string_view path, format::FileStat* out) override;
  int opendir(std::string_view path) override;
  std::optional<posixfs::Dirent> readdir(int dir_handle) override;
  int closedir(int dir_handle) override;
  /// The loop-thread answer (DESIGN.md §11): stat and listings from the
  /// local store, a whole-file read from a resident, verified, fully
  /// decoded plain-tier entry, pinned until the answer's last copy drops.
  /// Would block on anything that needs an RPC (a local miss or a listing
  /// while sharded()) or a load.
  bool try_serve(posixfs::ServeOp op, std::string_view path,
                 posixfs::ServeAnswer* out) override;

  /// Stages `path`'s *compressed* blob into the local backend without
  /// decompressing — the fetch half of the prefetch pipeline. Returns true
  /// when the data is now local (or already was, or is already decompressed
  /// in cache); a later open() completes decompression off the network
  /// critical path. Never throws; a failed fetch just leaves the slow path
  /// to open().
  bool prefetch_compressed(std::string_view path);

  /// Fully warms `path`: open + (for lazy chunked entries) decode every
  /// chunk + close, leaving the entry cached and unpinned. Never throws;
  /// returns false when the file could not be warmed. The prefetcher's
  /// warm stage uses this so lazy mode still prefetches whole files.
  bool warm_file(std::string_view path);

  /// Decodes every remaining chunk of an open fd's entry and checks its
  /// whole-file crc (no-op once checked). Returns 0 or -errno; on -EIO the
  /// entry leaves the cache when its last fd closes.
  int materialize(int fd);

  /// Installs (nullptr clears) a clairvoyant eviction policy on the
  /// decompressed cache (DESIGN.md §10): capacity pressure then evicts by
  /// farthest next planned use instead of FIFO. The policy — in practice a
  /// plan::AccessPlan — must outlive the fs or be cleared first.
  void install_plan(const EvictionPolicy* plan) {
    cache_.set_eviction_policy(plan);
  }

  /// True once a write-mode close() has stored a file in the backend.
  bool stored_writes() const {
    return stored_writes_.load(std::memory_order_relaxed);
  }

  /// The whole tier stack (introspection; pass-through when no tier
  /// budgets are configured). tiers().plain() is the plain-RAM tier.
  TieredCache& tiers() { return cache_; }
  const TieredCache& tiers() const { return cache_; }

  /// The registry holding this fs's metrics (injected or private).
  obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  /// Per-fd state. `path`, `mode`, `stat`, and `pinned` are immutable after
  /// open; the seek cursor and write buffer are guarded by the per-file
  /// mutex so concurrent reads of different fds never share a lock.
  struct OpenFile {
    std::string path;
    posixfs::OpenMode mode;
    format::FileStat stat;               // read mode: what open() resolved
    std::shared_ptr<CachedFile> pinned;  // read mode
    mutable sync::Mutex mu{"fanstore_fs.file.mu"};
    Bytes buffer GUARDED_BY(mu);  // write mode
    std::int64_t offset GUARDED_BY(mu) = 0;
  };
  struct OpenDir {
    std::vector<posixfs::Dirent> entries;
    std::size_t next = 0;
  };

  /// Stable references into the registry, bound once at construction so
  /// the hot path never does a name lookup. `cache_hits` aliases the
  /// cache's own "cache.hits" counter — the former near-duplicate fs copy
  /// is gone.
  struct IoMetrics {
    explicit IoMetrics(obs::MetricsRegistry& m);
    obs::Counter& opens;
    obs::Counter& cache_hits;  // alias of "cache.hits"
    obs::Counter& local_misses;    // decompressed from the local backend
    obs::Counter& remote_fetches;  // fetched from a peer's daemon
    obs::Counter& bytes_read;
    obs::Counter& bytes_written;
    obs::Counter& remote_bytes;  // compressed bytes over the wire
    obs::Counter& failovers;     // fetches served by a non-owner replica
    // Remote-fetch resilience ("retry.*", DESIGN.md §8): re-attempts after
    // retryable failures, their causes, and the total backoff slept.
    obs::Counter& retry_attempts;
    obs::Counter& retry_timeouts;
    obs::Counter& retry_crc_rejects;  // replies rejected by wire crc
    obs::Counter& retry_backoff_ms;
    obs::Counter& retry_exhausted;    // candidates abandoned after max_attempts
    obs::Histogram& open_us;
    obs::Histogram& read_us;
    obs::Histogram& load_us;
    obs::Histogram& fetch_us;
    // Chunked-container decode instrumentation ("chunked.*").
    obs::Counter& chunks_decoded;
    obs::Counter& chunked_bytes_decoded;
    obs::Counter& partial_reads;     // preads served without full decode
    obs::Counter& chunks_avoided;    // chunks a partial read did NOT decode
    obs::Counter& parallel_decodes;  // multi-chunk decodes run in parallel
    obs::Histogram& decode_us;       // materialize_all wall latency
  };

  void charge(double sec) const {
    if (options_.cost.enabled && options_.clock != nullptr) {
      options_.clock->advance_sec(sec);
    }
  }
  void charge_metadata() const {
    charge(options_.cost.read_path.metadata_op_s);
  }

  /// Loads `path` (Fig. 2), charging fetch costs. A stored (id 0) blob is
  /// crc-checked and kept as plain bytes. A chunked frame comes back as a
  /// lazy CachedFile: materialize_entry() or a per-range read decodes (and
  /// charges) it later, exactly once per chunk. With no tier enabled and
  /// an eager open, the frame is decoded here instead and only its plain
  /// bytes are returned. Any other codec id is refused (throws). The
  /// ColdResult carries the fetch source (peer vs local backend) for tier
  /// accounting.
  ColdResult load_cached(const std::string& path,
                         const format::FileStat& stat);

  /// Decodes every missing chunk of `file` with the configured decode
  /// pool, charges the parallel-makespan decompress cost for exactly the
  /// newly decoded chunks, verifies the whole-file crc against `stat` (the
  /// one open() resolved) once complete, and re-syncs the cache budget.
  /// No-op once `file` is verified. Throws on corrupt data, leaving `file`
  /// unverified.
  void materialize_entry(const std::string& path, CachedFile& file,
                         const format::FileStat& stat);

  /// Charges + counts `stats` chunks decoded at `threads`-way parallelism.
  void charge_chunk_decode(const CachedFile& file,
                           const CachedFile::DecodeStats& stats,
                           std::size_t threads);

  std::size_t decode_threads() const;

  /// Outcome of one fetch attempt. kMiss is definitive for that rank (it
  /// answered "not found"); kTimeout and kBadReply (CRC-rejected or
  /// malformed reply) are retryable.
  enum class FetchStatus { kOk, kMiss, kTimeout, kBadReply };

  /// Owner fetch with per-candidate retry (exponential backoff + jitter on
  /// retryable failures) + ring failover; nullopt when every candidate was
  /// exhausted or missed.
  std::optional<Blob> fetch_remote(const std::string& path,
                                   const format::FileStat& stat);

  /// One fetch attempt: a round trip to `rank`'s daemon. Fills `*out` on
  /// kOk.
  FetchStatus fetch_from(int rank, const std::string& path,
                         const format::FileStat& stat, Blob* out);

  mpi::Comm comm_;
  cluster::ClusterNode* cluster_;
  CompressedBackend* backend_;
  Options options_;
  const compress::Compressor* write_codec_;  // options_.write_compressor
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // when not injected
  obs::MetricsRegistry* metrics_;
  TieredCache cache_;
  IoMetrics io_;

  // Lock order (see DESIGN.md "Concurrency invariants"): fd_mu_, dir_mu_,
  // and writer_mu_ are independent leaves — never nested with each other,
  // with a per-file mu, or held across cache_/backend_/cluster_/comm_ calls.
  // A per-file mu is only taken with no table lock held (lookup copies the
  // shared_ptr out first).
  mutable sync::Mutex fd_mu_{"fanstore_fs.fd_mu"};
  std::map<int, std::shared_ptr<OpenFile>> open_files_ GUARDED_BY(fd_mu_);
  int next_fd_ GUARDED_BY(fd_mu_) = 3;
  mutable sync::Mutex dir_mu_{"fanstore_fs.dir_mu"};
  std::map<int, OpenDir> open_dirs_ GUARDED_BY(dir_mu_);
  int next_dir_ GUARDED_BY(dir_mu_) = 1;
  mutable sync::Mutex writer_mu_{"fanstore_fs.writer_mu"};
  std::set<std::string> writing_ GUARDED_BY(writer_mu_);  // in-flight writers
  std::atomic<bool> stored_writes_{false};
  std::atomic<std::uint32_t> reply_seq_{0};
};

}  // namespace fanstore::core
