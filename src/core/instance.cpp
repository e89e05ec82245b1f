#include "core/instance.hpp"

#include <cstdio>
#include <stdexcept>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "fault/injector.hpp"
#include "ipc/server.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace fanstore::core {

Instance::Instance(mpi::Comm comm, Options options)
    : comm_(comm), options_(std::move(options)) {
  if (options_.local_fs != nullptr) {
    backend_ = std::make_unique<VfsBackend>(options_.local_fs, options_.backend_root);
  } else {
    backend_ = std::make_unique<RamBackend>();
  }
  if (options_.fault != nullptr) {
    // Flaky-storage faults apply to every read of this rank's backend —
    // local opens and daemon-served fetches alike.
    backend_ = std::make_unique<FaultInjectedBackend>(
        std::move(backend_), comm_.rank(), options_.fault);
    // Straggler scripts slow this rank's *view* of the hardware; the
    // models are copied per-Instance so other ranks keep full speed.
    options_.fs.cost.read_path = options_.fs.cost.read_path.scaled(
        options_.fault->storage_multiplier(comm_.rank()));
    options_.fs.cost.network = options_.fs.cost.network.scaled(
        options_.fault->network_multiplier(comm_.rank()));
    // The spill tier rides this rank's local SSD: a storage straggler sees
    // slow spill I/O too.
    options_.fs.cost.spill_storage = options_.fs.cost.spill_storage.scaled(
        options_.fault->storage_multiplier(comm_.rank()));
  }
  options_.fs.cost.nodes = comm_.size();
  // One registry per rank, shared by the fs (and its cache) and the
  // daemon, so a single snapshot tells the rank's whole I/O story.
  if (options_.fs.metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    options_.fs.metrics = owned_metrics_.get();
  }
  // The cluster node owns the metadata store, so it must exist before the
  // fs (which asks it every metadata question) and the daemon.
  cluster::NodeOptions co;
  co.replication_factor = options_.cluster.replication_factor;
  co.metrics = options_.fs.metrics;
  co.fault = options_.fault;
  cluster_ = std::make_unique<cluster::ClusterNode>(comm_, co);
  if (options_.cluster.member) {
    std::vector<int> members = options_.cluster.initial_members;
    if (members.empty()) {
      for (int r = 0; r < comm_.size(); ++r) members.push_back(r);
    }
    cluster_->bootstrap(members);
  }
  fs_ = std::make_unique<FanStoreFs>(comm_, cluster_.get(), backend_.get(),
                                     options_.fs);
  daemon_ = std::make_unique<Daemon>(comm_, &cluster_->store(), backend_.get(),
                                     options_.fs.metrics, options_.fault,
                                     options_.fs.clock);
}

Instance::~Instance() {
  stop();
  heap_return_.armed = fs_->stored_writes();
}

Instance::HeapReturn::~HeapReturn() {
#if defined(__GLIBC__)
  // glibc keeps freed pages in the arena of the thread that allocated
  // them, and written files come from the writers' threads: free()
  // hands almost none of such an arena back, malloc_trim hands back its
  // free pages (bench_teardown measures both).
  if (armed) malloc_trim(0);
#endif
}

void Instance::load_partition_blob(ByteView blob, std::uint32_t partition_id,
                                   int owner_rank) {
  const auto records = format::scan_partition(blob);
  const auto owner =
      static_cast<std::uint32_t>(owner_rank < 0 ? comm_.rank() : owner_rank);
  for (const auto& rec : records) {
    backend_->put(std::string(rec.path),
                  Blob{rec.compressor, Bytes(rec.data.begin(), rec.data.end())});

    format::FileStat stat = rec.stat;
    stat.owner_rank = owner;
    stat.partition_id = partition_id;
    cluster_->store().insert(std::string(rec.path), stat);
  }
}

void Instance::load_from_shared(posixfs::Vfs& shared,
                                const std::vector<std::string>& partition_paths,
                                const std::vector<std::string>& broadcast_paths,
                                const simnet::StorageModel* shared_cost) {
  const int nranks = comm_.size();
  auto charge_partition = [&](std::size_t bytes) {
    if (shared_cost != nullptr && options_.fs.clock != nullptr) {
      options_.fs.clock->advance_sec(shared_cost->file_read_time(bytes));
    }
  };
  for (std::size_t p = 0; p < partition_paths.size(); ++p) {
    if (static_cast<int>(p % static_cast<std::size_t>(nranks)) != comm_.rank()) {
      continue;
    }
    auto blob = posixfs::read_file(shared, partition_paths[p]);
    if (!blob) {
      throw std::runtime_error("instance: cannot read partition " + partition_paths[p]);
    }
    charge_partition(blob->size());
    load_partition_blob(as_view(*blob), static_cast<std::uint32_t>(p));
    own_partitions_.push_back(std::move(*blob));
  }
  // Broadcast partitions: every rank loads them, owner = self, so access
  // never leaves the node (used for validation datasets).
  for (std::size_t b = 0; b < broadcast_paths.size(); ++b) {
    auto blob = posixfs::read_file(shared, broadcast_paths[b]);
    if (!blob) {
      throw std::runtime_error("instance: cannot read broadcast partition " +
                               broadcast_paths[b]);
    }
    charge_partition(blob->size());
    load_partition_blob(as_view(*blob),
                        static_cast<std::uint32_t>(partition_paths.size() + b));
  }
}

void Instance::replicate_ring(int rounds) {
  const int nranks = comm_.size();
  if (nranks == 1 || rounds <= 0) return;
  // Forward own partitions to the next rank; what arrives from the
  // previous rank is stored locally and forwarded onward on later rounds.
  std::vector<Bytes> outbound = own_partitions_;
  for (int round = 0; round < rounds; ++round) {
    const int next = (comm_.rank() + 1) % nranks;
    Bytes packed;
    append_le<std::uint32_t>(packed, static_cast<std::uint32_t>(outbound.size()));
    for (const Bytes& p : outbound) {
      append_le<std::uint64_t>(packed, p.size());
      packed.insert(packed.end(), p.begin(), p.end());
    }
    comm_.send(next, kTagRingCopy, std::move(packed));
    const mpi::Message msg = comm_.recv(mpi::kAnySource, kTagRingCopy);

    std::vector<Bytes> inbound;
    if (msg.payload.size() < 4) {
      throw std::runtime_error("instance: malformed ring-copy message");
    }
    const std::uint32_t count = load_le<std::uint32_t>(msg.payload.data());
    std::size_t pos = 4;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (pos + 8 > msg.payload.size()) {
        throw std::runtime_error("instance: truncated ring-copy message");
      }
      const std::uint64_t len = load_le<std::uint64_t>(msg.payload.data() + pos);
      pos += 8;
      if (pos + len > msg.payload.size()) {
        throw std::runtime_error("instance: truncated ring-copy partition");
      }
      inbound.emplace_back(msg.payload.begin() + static_cast<std::ptrdiff_t>(pos),
                           msg.payload.begin() + static_cast<std::ptrdiff_t>(pos + len));
      pos += len;
    }
    // Replicas keep their original owner in *metadata* (which is exchanged
    // globally), but land in the local backend so reads hit locally.
    for (const Bytes& p : inbound) {
      const auto records = format::scan_partition(as_view(p));
      for (const auto& rec : records) {
        backend_->put(std::string(rec.path),
                      Blob{rec.compressor, Bytes(rec.data.begin(), rec.data.end())});
      }
    }
    outbound = std::move(inbound);
    comm_.barrier();
  }
}

void Instance::exchange_metadata() {
  // Each member pushes each shard only to its owners — point-to-point, no
  // collective, so spare (non-member) ranks need not participate.
  cluster_->exchange_initial();
}

std::vector<std::string> Instance::dataset_paths() {
  return cluster_->enumerate_paths();
}

std::string Instance::stats_report() const {
  const auto m = metrics().snapshot();
  const auto n = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  const PlainCache& cache = fs_->tiers().plain();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "rank %d: opens=%llu hits=%llu local=%llu remote=%llu failover=%llu | "
      "read=%.1fMB wire=%.1fMB written=%.1fMB | cache %.1f/%.1fMB evict=%llu | "
      "backend %zu objs %.1fMB | daemon served=%llu meta_fwd=%llu",
      comm_.rank(), n(m.counter("fs.opens")), n(m.counter("cache.hits")),
      n(m.counter("fs.local_misses")), n(m.counter("fs.remote_fetches")),
      n(m.counter("fs.failovers")),
      static_cast<double>(m.counter("fs.bytes_read")) / 1e6,
      static_cast<double>(m.counter("fs.remote_bytes")) / 1e6,
      static_cast<double>(m.counter("fs.bytes_written")) / 1e6,
      static_cast<double>(cache.bytes_used()) / 1e6,
      static_cast<double>(cache.capacity()) / 1e6,
      n(m.counter("cache.evictions")), backend_->object_count(),
      static_cast<double>(backend_->bytes_used()) / 1e6,
      n(m.counter("daemon.fetches_served")),
      n(m.counter("daemon.meta_forwards")));
  std::string out = buf;
  if (server_ != nullptr) {
    const std::uint64_t requests = m.counter("ipc.requests");
    const std::uint64_t on_loop = m.counter("ipc.loop_served");
    char ipc_buf[96];
    std::snprintf(ipc_buf, sizeof(ipc_buf),
                  " | socket requests=%llu loop_served=%.1f%%", n(requests),
                  requests > 0 ? 100.0 * static_cast<double>(on_loop) /
                                     static_cast<double>(requests)
                               : 0.0);
    out += ipc_buf;
  }
  if (fs_->tiers().tiers_enabled()) {
    char tier_buf[128];
    std::snprintf(tier_buf, sizeof(tier_buf),
                  " | tiers comp=%.1fMB spill=%.1fMB",
                  static_cast<double>(fs_->tiers().compressed_bytes_used()) / 1e6,
                  static_cast<double>(fs_->tiers().spill_bytes_used()) / 1e6);
    out += tier_buf;
  }
  return out;
}

std::string Instance::metrics_dump(bool json) const {
  return obs::metrics_dump(fs_->metrics(), json);
}

void Instance::start_daemon() {
  daemon_->start();
  cluster_->start();
  if (!options_.serve_endpoints.empty() && server_ == nullptr) {
    std::vector<ipc::Endpoint> eps;
    eps.reserve(options_.serve_endpoints.size());
    for (const auto& spec : options_.serve_endpoints) {
      auto ep = ipc::Endpoint::parse(spec);
      if (!ep.has_value()) {
        throw std::invalid_argument("instance: bad serve endpoint: " + spec);
      }
      eps.push_back(std::move(*ep));
    }
    ipc::ServerOptions so;
    so.backlog = options_.serve_backlog;
    // Share the rank's registry: one snapshot covers fs + cache + daemon
    // + socket front door ("ipc.*").
    so.metrics = options_.fs.metrics;
    server_ = std::make_unique<ipc::Server>(std::move(eps), *fs_, so);
    server_->start();
  }
}

void Instance::stop() {
  // The socket front door serves through fs_, so it must drain before the
  // MPI daemon (and everything below it) goes away.
  if (server_) {
    server_->stop();
    server_.reset();
  }
  // The fs resolves metadata through the cluster node, so it must stop
  // answering only after the front doors above are gone; the data daemon
  // goes last (cluster teardown never fetches data).
  if (cluster_) cluster_->stop();
  if (daemon_) daemon_->stop();
}

}  // namespace fanstore::core
