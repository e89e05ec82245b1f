#include "core/daemon.hpp"

#include "fault/injector.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace fanstore::core {

Bytes encode_write_meta(std::string_view path, const cluster::VersionedStat& entry) {
  Bytes out = mpi::envelope(0);
  append_le<std::uint16_t>(out, static_cast<std::uint16_t>(path.size()));
  out.insert(out.end(), path.begin(), path.end());
  out.resize(out.size() + format::kStatBytes);
  entry.stat.serialize(out.data() + out.size() - format::kStatBytes);
  append_le<std::uint64_t>(out, entry.version);
  append_le<std::uint32_t>(out, entry.writer);
  return out;
}

Daemon::Daemon(mpi::Comm comm, cluster::ClusterNode& cluster,
               CompressedBackend* backend, obs::MetricsRegistry* metrics,
               fault::FaultInjector* injector, simnet::VirtualClock* clock)
    : comm_(comm), cluster_(cluster), backend_(backend), injector_(injector),
      clock_(clock) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  fetches_served_ = &metrics->counter("daemon.fetches_served");
  meta_received_ = &metrics->counter("daemon.meta_forwards");
  fetch_bytes_ = &metrics->counter("daemon.fetch_bytes");
  crc_rejects_ = &metrics->counter("daemon.crc_rejects");
  serve_us_ = &metrics->histogram("daemon.serve_us");
}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  sync::MutexLock lk(lifecycle_mu_);
  if (running_.exchange(true)) return;
  thread_ = std::thread([this] { serve(); });
}

void Daemon::stop() {
  sync::MutexLock lk(lifecycle_mu_);
  if (!running_.exchange(false)) return;
  comm_.send(comm_.rank(), mpi::kTagShutdown, {});
  if (thread_.joinable()) thread_.join();
}

void Daemon::serve() {
  // Match only requests: replies belong to this rank's callers, and the
  // ring copy to Instance::replicate_ring.
  const auto is_request = [](const mpi::Message& m) {
    return m.tag == mpi::kTagFetch || m.tag == mpi::kTagWriteMeta ||
           m.tag == mpi::kTagShutdown || mpi::is_cluster_tag(m.tag);
  };
  for (;;) {
    const mpi::Message msg = comm_.recv_if(is_request);
    if (msg.tag == mpi::kTagShutdown) return;
    if (injector_ != nullptr) {
      if (msg.tag == mpi::kTagFetch) injector_->note_fetch_request(comm_.rank());
      const double vnow = clock_ != nullptr ? clock_->now_sec() : -1.0;
      // Crashed process: the request vanishes and its sender times out.
      if (!injector_->daemon_alive(comm_.rank(), vnow)) continue;
    }
    switch (msg.tag) {
      case mpi::kTagFetch:
        handle_fetch(msg);
        break;
      case mpi::kTagWriteMeta:
        handle_write_meta(msg);
        break;
      default:
        cluster_.handle(msg);
    }
  }
}

void Daemon::handle_fetch(const mpi::Message& msg) {
  obs::TraceSpan span("daemon.fetch");
  WallTimer timer;
  const auto req = mpi::unseal(as_view(msg.payload));
  if (!req || req->body.empty()) {
    // A corrupted request must not turn into a definitive "not found" — the
    // path we parsed may not be the path that was asked for. Malformed is
    // retryable on the requester side.
    if (!req) crc_rejects_->inc();
    const std::uint32_t reply_tag = mpi::claimed_reply_tag(as_view(msg.payload));
    if (reply_tag != 0) reply(msg.source, reply_tag, kFetchMalformed);
    return;
  }
  const std::string path = to_string(req->body);
  const auto blob = backend_->get(path);
  if (!blob) {
    reply(msg.source, req->reply_tag, kFetchNotFound);
    return;
  }
  // Under sharded metadata this daemon may hold the blob without the
  // path's metadata shard; raw_size 0 tells the requester "size unknown"
  // (FanStoreFs skips its staleness check for it, zero-byte files
  // included — their payload is empty either way).
  const auto stat = cluster_.store().lookup(path);
  const std::uint64_t raw_size = stat ? stat->size : 0;
  fetch_bytes_->inc(blob->data.size());
  reply(msg.source, req->reply_tag, kFetchOk, &*blob, raw_size);
  fetches_served_->inc();
  serve_us_->record(static_cast<std::uint64_t>(timer.elapsed_us()));
}

void Daemon::reply(int dest, std::uint32_t reply_tag, std::uint8_t status,
                   const Blob* blob, std::uint64_t raw_size) {
  Bytes msg = mpi::envelope(reply_tag);
  msg.reserve(4 + kFetchReplyFixedBytes + (blob != nullptr ? blob->data.size() : 0) + 4);
  msg.push_back(status);
  append_le<std::uint16_t>(msg, blob != nullptr ? blob->compressor : 0);
  append_le<std::uint64_t>(msg, raw_size);
  if (blob != nullptr) msg.insert(msg.end(), blob->data.begin(), blob->data.end());
  comm_.send(dest, static_cast<int>(reply_tag), mpi::seal(std::move(msg)));
}

void Daemon::handle_write_meta(const mpi::Message& msg) {
  obs::TraceSpan span("daemon.write_meta");
  const auto sealed = mpi::unseal(as_view(msg.payload));
  if (!sealed) {
    crc_rejects_->inc();  // dropped, never applied
    return;
  }
  const ByteView body = sealed->body;
  if (body.size() < 2) {
    FANSTORE_LOG_WARN("daemon rank ", comm_.rank(), ": malformed write-meta");
    return;
  }
  const std::uint16_t len = load_le<std::uint16_t>(body.data());
  // Without its [u64 version][u32 writer] suffix the entry has no place in
  // the last-writer-wins order: drop it like any other truncation.
  if (body.size() < 2u + len + format::kStatBytes + 12u) {
    FANSTORE_LOG_WARN("daemon rank ", comm_.rank(),
                      ": truncated or unversioned write-meta");
    return;
  }
  const std::uint8_t* p = body.data() + 2;
  const std::string path(reinterpret_cast<const char*>(p), len);
  cluster::VersionedStat entry;
  entry.stat = format::FileStat::deserialize(p + len);
  entry.version = load_le<std::uint64_t>(p + len + format::kStatBytes);
  entry.writer = load_le<std::uint32_t>(p + len + format::kStatBytes + 8);
  cluster_.store().insert_versioned(path, entry);
  meta_received_->inc();
}

}  // namespace fanstore::core
