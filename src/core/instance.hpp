// Per-rank FanStore instance: backend + metadata + cache + daemon + the
// POSIX face, plus the startup flow of §IV-C1 / §V-D:
//
//   1. load partitions p with p % nranks == rank from the shared FS
//   2. optionally replicate neighbour partitions around a virtual ring
//   3. exchange metadata — per-shard pushes to the shard owners (every
//      rank under full replication, the default)
//   4. start the daemon, the rank's one loop for data and metadata
//      requests, and serve
#pragma once

#include <limits>
#include <memory>
#include <string>

#include "cluster/node.hpp"
#include "core/daemon.hpp"
#include "core/fanstore_fs.hpp"
#include "format/partition.hpp"
#include "mpi/comm.hpp"
#include "posixfs/vfs.hpp"
#include "simnet/models.hpp"

namespace fanstore::ipc {
class Server;
struct Endpoint;
}  // namespace fanstore::ipc

namespace fanstore::core {

class Instance {
 public:
  struct Options {
    FanStoreFs::Options fs;
    /// If set, use a disk backend rooted here on `local_fs`; RAM otherwise.
    posixfs::Vfs* local_fs = nullptr;
    std::string backend_root = ".fanstore";
    /// Optional fault injector (one per world, shared by every rank's
    /// Instance and by the mpi::World). Wires: daemon crash scripts,
    /// backend read faults (the local backend is wrapped in a
    /// FaultInjectedBackend), and straggler multipliers applied to this
    /// rank's cost models at construction. Must outlive the Instance.
    fault::FaultInjector* fault = nullptr;
    /// Socket endpoints (ipc::Endpoint specs: "unix:/path",
    /// "tcp:127.0.0.1:port", or a bare UDS path) where start_daemon()
    /// additionally serves this rank's POSIX face to *outside* processes
    /// through the event-driven ipc::Server — the §V-A
    /// interceptor-to-daemon boundary. Empty: MPI front door only.
    std::vector<std::string> serve_endpoints;
    /// Metadata cluster (cluster/node.hpp, DESIGN.md §13).
    struct ClusterConfig {
      /// Owners per metadata shard, capped at the member count. The
      /// default makes every rank an owner of every shard: full
      /// replication, the paper's design. Below 1 is rejected
      /// (std::invalid_argument).
      int replication_factor = std::numeric_limits<int>::max();
      /// Ranks bootstrapped as Joined members; empty = every world rank.
      /// A rank outside this list (member == false or just not listed) is
      /// a *spare*: its instance runs but owns nothing until join().
      std::vector<int> initial_members;
      /// Whether this rank bootstraps as a member (spares set false and
      /// call cluster().join() later).
      bool member = true;
    };
    ClusterConfig cluster;
  };
  // Observability: set `fs.metrics` to inject a registry; otherwise the
  // Instance creates one per rank and shares it across fs + cache + daemon
  // (see metrics() / metrics_dump()).

  Instance(mpi::Comm comm, Options options);
  /// Stops and frees every structure. When this Instance stored written
  /// files, the heap pages they freed go back to the OS (glibc), so the
  /// process does not keep the job's peak after the job ends; a read-only
  /// Instance leaves them to the allocator for the next load.
  ~Instance();

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Registers one partition's files into the backend and local metadata
  /// (owner = `owner_rank`, default: this rank).
  void load_partition_blob(ByteView blob, std::uint32_t partition_id,
                           int owner_rank = -1);

  /// The paper's startup: reads this rank's share of `partition_paths`
  /// (round-robin by index) from `shared` — charging `shared_cost` per
  /// partition if cost accounting is enabled — plus every path in
  /// `broadcast_paths` (validation data read by all ranks, §V-B).
  void load_from_shared(posixfs::Vfs& shared,
                        const std::vector<std::string>& partition_paths,
                        const std::vector<std::string>& broadcast_paths = {},
                        const simnet::StorageModel* shared_cost = nullptr);

  /// Copies this rank's partitions to the next rank around the ring
  /// (`rounds` hops), so extra local-storage capacity turns remote fetches
  /// into local hits. Collective: all ranks must call with equal `rounds`.
  void replicate_ring(int rounds = 1);

  /// Collective among bootstrap members: the point-to-point push of each
  /// local shard to its owners (ClusterNode::exchange_initial). Runs
  /// before start_daemon() (std::logic_error after it).
  void exchange_metadata();

  /// Every dataset path this rank can enumerate
  /// (ClusterNode::enumerate_paths; the local store under full
  /// replication). The trainer's enumeration step — callers bcast one
  /// rank's result when all ranks must agree on ordering.
  std::vector<std::string> dataset_paths();

  void start_daemon();
  void stop();

  /// One-line-per-metric observability report (opens, hit rate, remote
  /// traffic, cache occupancy, backend size, daemon counters, and with a
  /// socket front door its requests and the share answered on the loop
  /// thread).
  std::string stats_report() const;

  /// This rank's metric registry (fs + cache + daemon counters and
  /// latency histograms).
  obs::MetricsRegistry& metrics() const { return fs_->metrics(); }

  /// Full metric snapshot, text or JSON (obs::metrics_dump).
  std::string metrics_dump(bool json = false) const;

  /// Installs (nullptr clears) a clairvoyant eviction policy on this
  /// rank's cache (forwarded to FanStoreFs::install_plan; DESIGN.md §10).
  void install_plan(const EvictionPolicy* plan) { fs_->install_plan(plan); }

  FanStoreFs& fs() { return *fs_; }
  /// This rank's metadata store, owned by the cluster node.
  cluster::MetadataStore& metadata() { return cluster_->store(); }
  CompressedBackend& backend() { return *backend_; }
  Daemon& daemon() { return *daemon_; }
  /// The metadata cluster node (never null).
  cluster::ClusterNode* cluster_node() { return cluster_.get(); }
  mpi::Comm comm() const { return comm_; }

  /// The socket front door, running iff start_daemon() has run and
  /// Options::serve_endpoints was non-empty. Its endpoints() resolve
  /// ephemeral TCP ports ("tcp:127.0.0.1:0") to the bound port.
  ipc::Server* ipc_server() { return server_.get(); }

 private:
  /// Declared first, so destroyed last: after every other member has
  /// freed its heap, returns the free pages to the OS when `armed`.
  struct HeapReturn {
    HeapReturn() = default;
    HeapReturn(const HeapReturn&) = delete;
    HeapReturn& operator=(const HeapReturn&) = delete;
    ~HeapReturn();

    bool armed = false;
  };

  HeapReturn heap_return_;
  mpi::Comm comm_;
  Options options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // when not injected
  std::unique_ptr<CompressedBackend> backend_;
  std::unique_ptr<cluster::ClusterNode> cluster_;  // before fs_: fs points at it
  std::unique_ptr<FanStoreFs> fs_;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<ipc::Server> server_;  // socket front door; may be null
  std::vector<Bytes> own_partitions_;  // retained for ring replication
};

}  // namespace fanstore::core
