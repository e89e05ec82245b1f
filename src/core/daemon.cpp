#include "core/daemon.hpp"

#include <chrono>

#include "fault/injector.hpp"
#include "obs/trace.hpp"
#include "util/crc32.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace fanstore::core {

Bytes encode_fetch_request(std::uint32_t reply_tag, std::string_view path) {
  Bytes out;
  append_le<std::uint32_t>(out, reply_tag);
  append_le<std::uint32_t>(
      out, crc32(ByteView(reinterpret_cast<const unsigned char*>(path.data()),
                          path.size())));
  out.insert(out.end(), path.begin(), path.end());
  return out;
}

Bytes encode_fetch_reply(std::uint8_t status, const Blob* blob, std::uint64_t raw_size) {
  Bytes out;
  out.push_back(status);
  append_le<std::uint16_t>(out, blob != nullptr ? blob->compressor : 0);
  append_le<std::uint64_t>(out, raw_size);
  // Wire crc over the 11-byte header and the data (the crc field itself is
  // excluded); a flipped bit anywhere turns into a retryable reject.
  std::uint32_t crc = crc32(ByteView(out.data(), out.size()));
  if (blob != nullptr) crc = crc32(as_view(blob->data), crc);
  append_le<std::uint32_t>(out, crc);
  if (blob != nullptr) out.insert(out.end(), blob->data.begin(), blob->data.end());
  return out;
}

bool fetch_reply_crc_ok(ByteView payload) {
  if (payload.size() < kFetchReplyHeaderBytes) return false;
  const std::uint32_t stored = load_le<std::uint32_t>(payload.data() + 11);
  std::uint32_t crc = crc32(ByteView(payload.data(), 11));
  crc = crc32(ByteView(payload.data() + kFetchReplyHeaderBytes,
                       payload.size() - kFetchReplyHeaderBytes),
              crc);
  return crc == stored;
}

Bytes encode_write_meta(std::string_view path, const cluster::VersionedStat& entry) {
  Bytes out;
  append_le<std::uint16_t>(out, static_cast<std::uint16_t>(path.size()));
  out.insert(out.end(), path.begin(), path.end());
  out.resize(out.size() + format::kStatBytes);
  entry.stat.serialize(out.data() + out.size() - format::kStatBytes);
  append_le<std::uint64_t>(out, entry.version);
  append_le<std::uint32_t>(out, entry.writer);
  return out;
}

Daemon::Daemon(mpi::Comm comm, cluster::MetadataStore* meta,
               CompressedBackend* backend, obs::MetricsRegistry* metrics,
               fault::FaultInjector* injector, simnet::VirtualClock* clock)
    : comm_(comm), meta_(meta), backend_(backend), injector_(injector),
      clock_(clock) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  fetches_served_ = &metrics->counter("daemon.fetches_served");
  meta_received_ = &metrics->counter("daemon.meta_forwards");
  fetch_bytes_ = &metrics->counter("daemon.fetch_bytes");
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
  comm_.send(comm_.rank(), kTagShutdown, {});
  if (thread_.joinable()) thread_.join();
}

void Daemon::serve() {
  // Match only protocol tags: fetch *replies* (tag >= kReplyTagBase) belong
  // to this rank's application threads, not the daemon.
  const auto is_protocol = [](const mpi::Message& m) {
    return m.tag == kTagFetch || m.tag == kTagWriteMeta || m.tag == kTagShutdown;
  };
  for (;;) {
    mpi::Message msg = comm_.recv_if(is_protocol);
    switch (msg.tag) {
      case kTagShutdown:
        return;
      case kTagFetch:
        handle_fetch(msg);
        break;
      case kTagWriteMeta:
        handle_write_meta(msg);
        break;
      default:
        FANSTORE_LOG_WARN("daemon rank ", comm_.rank(), ": unexpected tag ", msg.tag);
    }
  }
}

void Daemon::handle_fetch(const mpi::Message& msg) {
  obs::TraceSpan span("daemon.fetch");
  WallTimer timer;
  if (injector_ != nullptr) {
    injector_->note_fetch_request(comm_.rank());
    const double vnow = clock_ != nullptr ? clock_->now_sec() : -1.0;
    if (!injector_->daemon_alive(comm_.rank(), vnow)) {
      return;  // crashed daemon: request vanishes, requester times out
    }
    const int hang = injector_->daemon_hang_ms(comm_.rank());
    if (hang > 0) std::this_thread::sleep_for(std::chrono::milliseconds(hang));
  }
  if (msg.payload.size() < 4) {
    // Cannot even parse the reply tag; nothing sensible to do but log.
    FANSTORE_LOG_WARN("daemon rank ", comm_.rank(), ": malformed fetch request");
    return;
  }
  const std::uint32_t reply_tag = load_le<std::uint32_t>(msg.payload.data());
  if (msg.payload.size() < kFetchRequestHeaderBytes) {
    comm_.send(msg.source, static_cast<int>(reply_tag),
               encode_fetch_reply(kFetchMalformed, nullptr, 0));
    return;
  }
  const std::uint32_t path_crc = load_le<std::uint32_t>(msg.payload.data() + 4);
  const std::string path(
      reinterpret_cast<const char*>(msg.payload.data()) + kFetchRequestHeaderBytes,
      msg.payload.size() - kFetchRequestHeaderBytes);
  if (path.empty() ||
      crc32(ByteView(msg.payload.data() + kFetchRequestHeaderBytes,
                     path.size())) != path_crc) {
    // A corrupted request must not turn into a definitive "not found" — the
    // path we parsed may not be the path that was asked for. Malformed is
    // retryable on the requester side.
    comm_.send(msg.source, static_cast<int>(reply_tag),
               encode_fetch_reply(kFetchMalformed, nullptr, 0));
    return;
  }
  const auto blob = backend_->get(path);
  if (!blob) {
    comm_.send(msg.source, static_cast<int>(reply_tag),
               encode_fetch_reply(kFetchNotFound, nullptr, 0));
    return;
  }
  // Under sharded metadata this daemon may hold the blob without the
  // path's metadata shard; raw_size 0 tells the requester "size unknown"
  // (FanStoreFs skips its staleness check for it, zero-byte files
  // included — their payload is empty either way).
  const auto stat = meta_->lookup(path);
  const std::uint64_t raw_size = stat ? stat->size : 0;
  fetch_bytes_->inc(blob->data.size());
  comm_.send(msg.source, static_cast<int>(reply_tag),
             encode_fetch_reply(kFetchOk, &*blob, raw_size));
  fetches_served_->inc();
  serve_us_->record(static_cast<std::uint64_t>(timer.elapsed_us()));
}

void Daemon::handle_write_meta(const mpi::Message& msg) {
  obs::TraceSpan span("daemon.write_meta");
  if (msg.payload.size() < 2) {
    FANSTORE_LOG_WARN("daemon rank ", comm_.rank(), ": malformed write-meta");
    return;
  }
  const std::uint16_t len = load_le<std::uint16_t>(msg.payload.data());
  // Without its [u64 version][u32 writer] suffix the entry has no place in
  // the last-writer-wins order: drop it like any other truncation.
  if (msg.payload.size() < 2u + len + format::kStatBytes + 12u) {
    FANSTORE_LOG_WARN("daemon rank ", comm_.rank(),
                      ": truncated or unversioned write-meta");
    return;
  }
  const std::uint8_t* p = msg.payload.data() + 2;
  const std::string path(reinterpret_cast<const char*>(p), len);
  cluster::VersionedStat entry;
  entry.stat = format::FileStat::deserialize(p + len);
  entry.version = load_le<std::uint64_t>(p + len + format::kStatBytes);
  entry.writer = load_le<std::uint32_t>(p + len + format::kStatBytes + 8);
  meta_->insert_versioned(path, entry);
  meta_received_->inc();
}

}  // namespace fanstore::core
