#include "core/fanstore_fs.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "compress/chunked.hpp"
#include "compress/registry.hpp"
#include "format/partition.hpp"
#include "util/crc32.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace fanstore::core {

FanStoreFs::IoMetrics::IoMetrics(obs::MetricsRegistry& m)
    : opens(m.counter("fs.opens")),
      cache_hits(m.counter("cache.hits")),
      local_misses(m.counter("fs.local_misses")),
      remote_fetches(m.counter("fs.remote_fetches")),
      bytes_read(m.counter("fs.bytes_read")),
      bytes_written(m.counter("fs.bytes_written")),
      remote_bytes(m.counter("fs.remote_bytes")),
      failovers(m.counter("fs.failovers")),
      retry_attempts(m.counter("retry.attempts")),
      retry_timeouts(m.counter("retry.timeouts")),
      retry_crc_rejects(m.counter("retry.crc_rejects")),
      retry_backoff_ms(m.counter("retry.backoff_ms")),
      retry_exhausted(m.counter("retry.exhausted")),
      open_us(m.histogram("fs.open_us")),
      read_us(m.histogram("fs.read_us")),
      load_us(m.histogram("fs.load_us")),
      fetch_us(m.histogram("fs.fetch_us")),
      chunks_decoded(m.counter("chunked.chunks_decoded")),
      chunked_bytes_decoded(m.counter("chunked.bytes_decoded")),
      partial_reads(m.counter("chunked.partial_reads")),
      chunks_avoided(m.counter("chunked.chunks_avoided")),
      parallel_decodes(m.counter("chunked.parallel_decodes")),
      decode_us(m.histogram("chunked.decode_us")) {}

namespace {

/// A loop-served read's pin on its plain-tier entry: the bytes stay
/// alive (and the entry unevictable) until the last copy of the answer
/// drops, which then closes the read like close() would.
struct ServePin {
  ServePin(TieredCache* c, std::string p, std::shared_ptr<CachedFile> f)
      : cache(c), path(std::move(p)), file(std::move(f)) {}
  ServePin(const ServePin&) = delete;
  ServePin& operator=(const ServePin&) = delete;
  ~ServePin() { cache->release(path); }

  TieredCache* cache;
  std::string path;
  std::shared_ptr<CachedFile> file;
};

TieredCache::Options tier_options(const FanStoreFs::Options& o,
                                  obs::MetricsRegistry* metrics) {
  TieredCache::Options t;
  t.plain_bytes = o.cache_bytes;
  t.plain_shards = o.cache_shards;
  t.compressed_bytes = o.compressed_cache_bytes;
  t.spill_bytes = o.spill_bytes;
  t.spill_fs = o.spill_fs;
  t.spill_root = o.spill_root;
  t.promote_after_hits = o.promote_after_hits;
  t.metrics = metrics;
  t.clock = o.clock;
  t.charge_costs = o.cost.enabled;
  t.spill_storage = o.cost.spill_storage;
  return t;
}

}  // namespace

FanStoreFs::FanStoreFs(mpi::Comm comm, cluster::ClusterNode* cluster,
                       CompressedBackend* backend, Options options)
    : comm_(comm),
      cluster_(cluster),
      backend_(backend),
      options_(options),
      write_codec_(compress::Registry::instance().by_id(options.write_compressor)),
      owned_metrics_(options.metrics != nullptr
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>()),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : owned_metrics_.get()),
      cache_(tier_options(options, metrics_)),
      io_(*metrics_) {
  if (options_.fetch_timeout_ms < 0) {
    throw std::invalid_argument(
        "FanStoreFs: fetch_timeout_ms must be >= 0 (0 = no timeout)");
  }
  if (options_.failover_hops < 0) {
    throw std::invalid_argument("FanStoreFs: failover_hops must be >= 0");
  }
  options_.retry.validate();
  if (write_codec_ == nullptr) {
    throw std::invalid_argument("FanStoreFs: unknown write_compressor id " +
                                std::to_string(options_.write_compressor));
  }
}

FanStoreFs::FetchStatus FanStoreFs::fetch_from(int rank, const std::string& path,
                                               const format::FileStat& stat,
                                               Blob* out) {
  obs::TraceSpan span("fs.fetch", options_.clock);
  const std::uint32_t reply_tag =
      static_cast<std::uint32_t>(kReplyTagBase) +
      (reply_seq_.fetch_add(1, std::memory_order_relaxed) % 1000000u);
  comm_.send(rank, kTagFetch, encode_fetch_request(reply_tag, path));
  std::optional<mpi::Message> reply;
  if (options_.fetch_timeout_ms > 0) {
    reply = comm_.recv_timeout(rank, static_cast<int>(reply_tag),
                               options_.fetch_timeout_ms);
    if (!reply) {
      FANSTORE_LOG_WARN("fanstore rank ", comm_.rank(), ": fetch of ", path,
                        " from rank ", rank, " timed out");
      return FetchStatus::kTimeout;  // presumed-dead daemon
    }
  } else {
    // fetch_timeout_ms == 0: no timeout — wait for the answer forever.
    reply = comm_.recv(rank, static_cast<int>(reply_tag));
  }
  // Wire crc first: a corrupted reply must never be interpreted — not even
  // its status byte (a flipped kFetchOk would otherwise read as a
  // definitive miss, a flipped kFetchNotFound as data).
  if (!fetch_reply_crc_ok(as_view(reply->payload))) {
    io_.retry_crc_rejects.inc();
    FANSTORE_LOG_WARN("fanstore rank ", comm_.rank(), ": fetch of ", path,
                      " from rank ", rank, ": reply failed wire crc");
    return FetchStatus::kBadReply;
  }
  if (reply->payload[0] == kFetchNotFound) return FetchStatus::kMiss;
  if (reply->payload[0] != kFetchOk) {
    // kFetchMalformed: our *request* was damaged in flight — retry it.
    return FetchStatus::kBadReply;
  }
  Blob fetched;
  fetched.compressor = load_le<std::uint16_t>(reply->payload.data() + 1);
  const std::uint64_t raw_size = load_le<std::uint64_t>(reply->payload.data() + 3);
  fetched.data = Bytes(reply->payload.begin() + kFetchReplyHeaderBytes,
                       reply->payload.end());
  // raw_size == 0 means the serving daemon has no metadata for this path.
  // That is normal under sharded metadata (§13): data placement and
  // metadata placement are decoupled, so the rank holding the blob may not
  // own the path's metadata shard. Only a *known* differing size marks the
  // blob as a stale/other version.
  if (raw_size != 0 && raw_size != stat.size) return FetchStatus::kMiss;
  charge(options_.cost.network.transfer_time(fetched.data.size(), options_.cost.nodes));
  if (options_.cost.charge_remote_service) {
    charge(options_.cost.remote_service.file_read_time(fetched.data.size()));
  }
  io_.remote_fetches.inc();
  io_.remote_bytes.inc(fetched.data.size());
  *out = std::move(fetched);
  return FetchStatus::kOk;
}

std::optional<Blob> FanStoreFs::fetch_remote(const std::string& path,
                                             const format::FileStat& stat) {
  // Remote fetch from the owner's daemon (Fig. 2, remote branch). A
  // retryable failure (timeout, CRC-rejected reply) is retried against the
  // same candidate with exponential backoff + deterministic jitter; a
  // definitive miss moves failover on around the ring, where
  // replicate_ring() may have placed copies.
  const int owner = static_cast<int>(stat.owner_rank);
  const RetryPolicy& retry = options_.retry;
  const std::uint64_t salt =
      std::hash<std::string>{}(path) ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(comm_.rank())) << 40);
  WallTimer timer;
  std::optional<Blob> blob;
  for (int hop = 0; hop <= options_.failover_hops && !blob; ++hop) {
    const int candidate = (owner + hop) % comm_.size();
    if (candidate == comm_.rank()) continue;  // local backend already missed
    for (int attempt = 1; attempt <= retry.max_attempts; ++attempt) {
      Blob fetched;
      const FetchStatus st = fetch_from(candidate, path, stat, &fetched);
      if (st == FetchStatus::kOk) {
        blob = std::move(fetched);
        if (hop > 0) io_.failovers.inc();
        break;
      }
      if (st == FetchStatus::kMiss) break;  // definitive: next ring candidate
      if (st == FetchStatus::kTimeout) io_.retry_timeouts.inc();
      if (attempt == retry.max_attempts) {
        io_.retry_exhausted.inc();
        break;
      }
      io_.retry_attempts.inc();
      const int backoff = retry.delay_ms(
          attempt, salt ^ static_cast<std::uint64_t>(candidate));
      if (backoff > 0) {
        io_.retry_backoff_ms.inc(static_cast<std::uint64_t>(backoff));
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
    }
  }
  io_.fetch_us.record(static_cast<std::uint64_t>(timer.elapsed_us()));
  return blob;
}

std::size_t FanStoreFs::decode_threads() const {
  if (options_.decode_threads != 0) return options_.decode_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ColdResult FanStoreFs::load_cached(const std::string& path,
                                   const format::FileStat& stat) {
  obs::TraceSpan span("fs.load", options_.clock);
  WallTimer timer;
  ColdResult result;
  std::optional<Blob> blob = backend_->get(path);
  if (!blob && static_cast<int>(stat.owner_rank) != comm_.rank()) {
    blob = fetch_remote(path, stat);
    if (!blob) {
      throw std::runtime_error("fanstore: remote fetch failed for " + path);
    }
    result.source = ColdSource::kPeer;
  } else if (blob) {
    io_.local_misses.inc();
  }
  if (!blob) {
    throw std::runtime_error("fanstore: owner rank has no data for " + path);
  }
  if (blob->compressor == 0) {
    // Stored blob: the plain bytes themselves, checked before admission.
    // The entry aliases the backend's buffer, so a stored file read back
    // costs no second copy.
    if (blob->data.size() != stat.size ||
        (stat.crc != 0 && crc32(as_view(blob->data)) != stat.crc)) {
      throw std::runtime_error("fanstore: CRC mismatch for " + path);
    }
    result.file = std::make_shared<CachedFile>(std::move(blob->data));
  } else if (compress::is_chunked_id(blob->compressor)) {
    // Chunked frame: parse + validate now, decode nothing. Chunks decode
    // (and their cost is charged) exactly once each, wherever they first
    // materialize — eager open, prefetch warm, or a pread range. The frame
    // stays inside the CachedFile, so the tiered cache demotes it without
    // a separate compressed copy here.
    auto file = std::make_shared<CachedFile>(std::move(blob->data),
                                             blob->compressor, stat.size);
    if (!cache_.tiers_enabled() && !options_.lazy_chunked_open) {
      // Nothing below the plain tier takes the frame and no read decodes
      // lazily: decode here, inside the single-flight slot, and admit only
      // the plain bytes, so the entry is never charged frame + plain.
      materialize_entry(path, *file, stat);
      file = std::make_shared<CachedFile>(std::move(*file).take_plain());
    }
    result.file = std::move(file);
  } else {
    throw std::runtime_error("fanstore: compressor id " +
                             std::to_string(blob->compressor) +
                             " is neither store nor a chunked frame for " + path);
  }
  io_.load_us.record(static_cast<std::uint64_t>(timer.elapsed_us()));
  return result;
}

void FanStoreFs::charge_chunk_decode(const CachedFile& file,
                                     const CachedFile::DecodeStats& stats,
                                     std::size_t threads) {
  if (stats.chunks_decoded == 0) return;
  io_.chunks_decoded.inc(stats.chunks_decoded);
  io_.chunked_bytes_decoded.inc(stats.bytes_decoded);
  if (file.inner_id() != 0) {
    charge(simnet::CodecSpeedTable::shared().chunked_decompress_seconds(
        file.inner_id(), stats.bytes_decoded, stats.chunks_decoded, threads));
  }
}

void FanStoreFs::materialize_entry(const std::string& path, CachedFile& file,
                                   const format::FileStat& stat) {
  if (file.verified()) return;
  obs::TraceSpan span("fs.chunked_decode", options_.clock);
  if (!file.fully_materialized()) {
    WallTimer timer;
    const std::size_t threads = decode_threads();
    if (threads > 1 && file.chunk_count() > 1) io_.parallel_decodes.inc();
    CachedFile::DecodeStats ds;
    file.materialize_all(threads, &ds);
    charge_chunk_decode(file, ds, threads);
    io_.decode_us.record(static_cast<std::uint64_t>(timer.elapsed_us()));
    cache_.recharge(path);
  }
  // Whole-file crc check happens here, once every chunk has landed (the
  // per-chunk compressed crcs already caught corruption chunk-wise). An
  // entry is served as checked only after this passes; callers invalidate
  // it on a throw so the next open loads it again.
  if (stat.crc != 0 && crc32(as_view(file.plain())) != stat.crc) {
    throw std::runtime_error("fanstore: CRC mismatch for " + path);
  }
  file.mark_verified();
}

bool FanStoreFs::warm_file(std::string_view path) {
  const int fd = open(path, posixfs::OpenMode::kRead);
  if (fd < 0) return false;
  // Eager open already decoded everything; in lazy mode warming must finish
  // the job so the training thread's reads are pure cache hits.
  const int rc = materialize(fd);
  close(fd);
  return rc == 0;
}

int FanStoreFs::materialize(int fd) {
  std::shared_ptr<OpenFile> of;
  {
    sync::MutexLock lk(fd_mu_);
    const auto it = open_files_.find(fd);
    if (it == open_files_.end()) return -EBADF;
    of = it->second;
  }
  if (of->mode != posixfs::OpenMode::kRead || of->pinned == nullptr) {
    return -EBADF;
  }
  try {
    materialize_entry(of->path, *of->pinned, of->stat);
  } catch (const std::exception& e) {
    FANSTORE_LOG_WARN("fanstore materialize(", of->path, "): ", e.what());
    cache_.invalidate(of->path);  // erased when close() drops the last pin
    return -EIO;
  }
  return 0;
}

bool FanStoreFs::prefetch_compressed(std::string_view path_in) {
  const std::string path = posixfs::normalize_path(path_in);
  if (path.empty()) return false;
  const auto stat = cluster_->lookup(path);
  if (!stat || stat->type != format::FileType::kRegular) return false;
  if (cache_.contains_any(path)) return true;  // resident in some local tier
  if (backend_->contains(path)) return true;  // compressed blob already local
  if (static_cast<int>(stat->owner_rank) == comm_.rank()) return false;
  try {
    std::optional<Blob> blob = fetch_remote(path, *stat);
    if (!blob) return false;
    // Stage the compressed bytes locally; open() decompresses later with
    // the network already off its critical path.
    backend_->put(path, std::move(*blob));
    return true;
  } catch (const std::exception& e) {
    FANSTORE_LOG_WARN("fanstore prefetch_compressed(", path, "): ", e.what());
    return false;
  }
}

int FanStoreFs::open(std::string_view path_in, posixfs::OpenMode mode) {
  obs::TraceSpan span("fs.open", options_.clock);
  WallTimer timer;
  const std::string path = posixfs::normalize_path(path_in);
  if (path.empty()) return -EINVAL;
  charge_metadata();

  if (mode == posixfs::OpenMode::kWrite) {
    // The metadata wire forms carry path lengths as u16.
    if (path.size() > cluster::kMaxPathBytes) return -ENAMETOOLONG;
    // Multi-read/single-write model: write-once, one writer at a time
    // (the existence check spans the shard owners).
    const auto existing = cluster_->lookup(path);
    if (existing && existing->type == format::FileType::kRegular) {
      return -EEXIST;
    }
    {
      sync::MutexLock lk(writer_mu_);
      if (!writing_.insert(path).second) return -EBUSY;
    }
    auto of = std::make_shared<OpenFile>();
    of->path = path;
    of->mode = mode;
    sync::MutexLock lk(fd_mu_);
    const int fd = next_fd_++;
    open_files_[fd] = std::move(of);
    return fd;
  }

  const auto stat = cluster_->lookup(path);
  if (!stat) return -ENOENT;
  if (stat->type == format::FileType::kDirectory) return -EISDIR;
  charge(options_.cost.read_path.per_op_s);

  std::shared_ptr<CachedFile> pinned;
  try {
    // The loader (fetch + decompress) runs inside the cache's single-flight
    // slot with no FanStoreFs lock held; concurrent opens of one path load
    // it once and share the result. Hit/miss accounting lives in the
    // cache's own "cache.*" counters (same registry).
    pinned = cache_.acquire_file(path, [&] { return load_cached(path, *stat); });
  } catch (const std::exception& e) {
    FANSTORE_LOG_WARN("fanstore open(", path, "): ", e.what());
    return -EIO;
  }
  if (!options_.lazy_chunked_open && !pinned->verified()) {
    // Eager mode (default): decode every chunk now, in parallel — open()
    // keeps its classic "returns fully decompressed" contract but the
    // decompress step no longer serializes on one core.
    try {
      materialize_entry(path, *pinned, *stat);
    } catch (const std::exception& e) {
      FANSTORE_LOG_WARN("fanstore open(", path, "): ", e.what());
      pinned.reset();
      cache_.invalidate(path);
      cache_.release(path);
      return -EIO;
    }
  }
  io_.opens.inc();
  auto of = std::make_shared<OpenFile>();
  of->path = path;
  of->mode = mode;
  of->stat = *stat;
  of->pinned = std::move(pinned);
  sync::MutexLock lk(fd_mu_);
  const int fd = next_fd_++;
  open_files_[fd] = std::move(of);
  io_.open_us.record(static_cast<std::uint64_t>(timer.elapsed_us()));
  return fd;
}

int FanStoreFs::close(int fd) {
  obs::TraceSpan span("fs.close", options_.clock);
  std::shared_ptr<OpenFile> of;
  {
    sync::MutexLock lk(fd_mu_);
    const auto it = open_files_.find(fd);
    if (it == open_files_.end()) return -EBADF;
    of = std::move(it->second);
    open_files_.erase(it);
  }
  if (of->mode == posixfs::OpenMode::kRead) {
    cache_.release(of->path);
    return 0;
  }
  // Write close: dump to the local backend and forward metadata (§V-D).
  Bytes plain;
  {
    sync::MutexLock flk(of->mu);
    plain = std::move(of->buffer);
  }
  format::FileRecord rec = format::make_record(
      of->path, *write_codec_, options_.write_compressor, as_view(plain));
  format::FileStat stat = rec.stat;
  stat.type = format::FileType::kRegular;
  stat.owner_rank = static_cast<std::uint32_t>(comm_.rank());

  charge(options_.cost.read_path.file_write_time(rec.data.size()));
  backend_->put(of->path, Blob{rec.compressor, std::move(rec.data)});
  stored_writes_.store(true, std::memory_order_relaxed);
  // The metadata replicates to every shard owner (every rank under full
  // replication) with a (version, writer) tag; concurrent writers of one
  // path resolve by deterministic last-writer-wins at each replica (§13).
  const cluster::VersionedStat entry{stat, 1,
                                     static_cast<std::uint32_t>(comm_.rank())};
  cluster_->store().insert_versioned(of->path, entry);
  for (const int owner : cluster_->meta_owners(of->path)) {
    if (owner == comm_.rank()) continue;
    comm_.send(owner, kTagWriteMeta, encode_write_meta(of->path, entry));
    charge(options_.cost.network.transfer_time(
        of->path.size() + format::kStatBytes + 12, options_.cost.nodes));
  }
  {
    sync::MutexLock lk(writer_mu_);
    writing_.erase(of->path);
  }
  io_.bytes_written.inc(stat.size);
  return 0;
}

std::int64_t FanStoreFs::read(int fd, MutByteView buf) {
  obs::TraceSpan span("fs.read", options_.clock);
  WallTimer timer;
  std::shared_ptr<OpenFile> of;
  {
    sync::MutexLock lk(fd_mu_);
    const auto it = open_files_.find(fd);
    if (it == open_files_.end()) return -EBADF;
    of = it->second;
  }
  if (of->mode != posixfs::OpenMode::kRead) return -EBADF;
  CachedFile& file = *of->pinned;
  std::size_t n = 0;
  CachedFile::DecodeStats ds;
  {
    // Copy under the per-file lock only: reads of different fds proceed in
    // parallel (the seed serialized every copy behind the global fs lock).
    // Lazy chunked entries decode the touched chunks inline
    // (fanstore_fs.file.mu -> cached_file.mu is a documented leaf edge).
    sync::MutexLock flk(of->mu);
    if (of->offset >= static_cast<std::int64_t>(file.size())) return 0;
    n = std::min(buf.size(), file.size() - static_cast<std::size_t>(of->offset));
    try {
      file.read_range(static_cast<std::size_t>(of->offset),
                      MutByteView(buf.data(), n), &ds);
    } catch (const std::exception& e) {
      FANSTORE_LOG_WARN("fanstore read(", of->path, "): ", e.what());
      return -EIO;
    }
    of->offset += static_cast<std::int64_t>(n);
  }
  if (ds.chunks_decoded > 0) {
    charge_chunk_decode(file, ds, 1);  // inline range decode is serial
    cache_.recharge(of->path);
  }
  charge(static_cast<double>(n) / options_.cost.read_path.bandwidth_bps);
  io_.bytes_read.inc(n);
  io_.read_us.record(static_cast<std::uint64_t>(timer.elapsed_us()));
  return static_cast<std::int64_t>(n);
}

std::int64_t FanStoreFs::pread(int fd, MutByteView buf, std::uint64_t offset) {
  obs::TraceSpan span("fs.pread", options_.clock);
  WallTimer timer;
  std::shared_ptr<OpenFile> of;
  {
    sync::MutexLock lk(fd_mu_);
    const auto it = open_files_.find(fd);
    if (it == open_files_.end()) return -EBADF;
    of = it->second;
  }
  if (of->mode != posixfs::OpenMode::kRead) return -EBADF;
  CachedFile& file = *of->pinned;
  if (offset >= file.size()) return 0;
  const std::size_t n =
      std::min(buf.size(), file.size() - static_cast<std::size_t>(offset));
  // No cursor: the per-file mutex is not needed — the entry is immutable
  // except for chunk materialization, which CachedFile coordinates itself.
  const bool was_partial = !file.fully_materialized();
  CachedFile::DecodeStats ds;
  try {
    file.read_range(static_cast<std::size_t>(offset), MutByteView(buf.data(), n),
                    &ds);
  } catch (const std::exception& e) {
    FANSTORE_LOG_WARN("fanstore pread(", of->path, "): ", e.what());
    return -EIO;
  }
  if (ds.chunks_decoded > 0) {
    charge_chunk_decode(file, ds, 1);  // per-range decode charges only
    cache_.recharge(of->path);         // the decoded bytes, serially
  }
  if (was_partial) {
    // The headline win, made observable: this read finished without the
    // whole file decoded, skipping every non-overlapping chunk.
    const std::size_t cs = file.chunk_size();
    const std::size_t touched =
        (static_cast<std::size_t>(offset) + n - 1) / cs -
        static_cast<std::size_t>(offset) / cs + 1;
    io_.partial_reads.inc();
    io_.chunks_avoided.inc(file.chunk_count() - touched);
  }
  charge(static_cast<double>(n) / options_.cost.read_path.bandwidth_bps);
  io_.bytes_read.inc(n);
  io_.read_us.record(static_cast<std::uint64_t>(timer.elapsed_us()));
  return static_cast<std::int64_t>(n);
}

std::int64_t FanStoreFs::write(int fd, ByteView buf) {
  std::shared_ptr<OpenFile> of;
  {
    sync::MutexLock lk(fd_mu_);
    const auto it = open_files_.find(fd);
    if (it == open_files_.end()) return -EBADF;
    of = it->second;
  }
  if (of->mode != posixfs::OpenMode::kWrite) return -EBADF;
  sync::MutexLock flk(of->mu);
  return posixfs::write_at_cursor(&of->buffer, &of->offset, buf);
}

std::int64_t FanStoreFs::lseek(int fd, std::int64_t offset, posixfs::Whence whence) {
  std::shared_ptr<OpenFile> of;
  {
    sync::MutexLock lk(fd_mu_);
    const auto it = open_files_.find(fd);
    if (it == open_files_.end()) return -EBADF;
    of = it->second;
  }
  sync::MutexLock flk(of->mu);
  const std::size_t size = of->mode == posixfs::OpenMode::kRead
                               ? of->pinned->size()
                               : of->buffer.size();
  return posixfs::seek_cursor(&of->offset, offset, whence, size);
}

int FanStoreFs::stat(std::string_view path_in, format::FileStat* out) {
  const std::string path = posixfs::normalize_path(path_in);
  charge_metadata();
  const auto st = cluster_->lookup(path);
  if (!st) return -ENOENT;
  *out = *st;
  return 0;
}

bool FanStoreFs::try_serve(posixfs::ServeOp op, std::string_view path_in,
                           posixfs::ServeAnswer* out) {
  WallTimer timer;
  const std::string path = posixfs::normalize_path(path_in);
  cluster::MetadataStore& store = cluster_->store();
  switch (op) {
    case posixfs::ServeOp::kStat: {
      // stat(): cluster_->lookup() reads this store first and sends an
      // RPC only after a miss in a sharded store.
      const auto st = store.lookup(path);
      if (!st && cluster_->sharded()) return false;
      charge_metadata();
      out->rc = st ? 0 : -ENOENT;
      if (st) out->stat = *st;
      return true;
    }
    case posixfs::ServeOp::kList: {
      // A sharded store holds only its shards' children: the listing is a
      // union over ranks.
      if (cluster_->sharded()) return false;
      charge_metadata();  // opendir()
      if (!store.dir_exists(path)) {
        out->rc = -ENOENT;
        return true;
      }
      out->entries = store.list(path);
      // One readdir() per entry plus the one that reports the end.
      for (std::size_t i = 0; i <= out->entries.size(); ++i) charge_metadata();
      out->rc = 0;
      return true;
    }
    case posixfs::ServeOp::kReadAll: {
      if (path.empty()) {
        out->rc = -EINVAL;
        return true;
      }
      const auto st = store.lookup(path);
      if (!st && cluster_->sharded()) return false;
      if (!st || st->type == format::FileType::kDirectory) {
        charge_metadata();
        out->rc = st ? -EISDIR : -ENOENT;
        return true;
      }
      // The answer's pin drops on the loop thread, and that release can
      // evict; with a spill tier the demotion would write the device there.
      if (cache_.spill_enabled()) return false;
      std::shared_ptr<CachedFile> file = cache_.try_acquire(path);
      if (file == nullptr) return false;  // open() would load or decode
      // What open() + read() to the end + close() charge and count.
      charge_metadata();
      charge(options_.cost.read_path.per_op_s);
      charge(static_cast<double>(file->size()) /
             options_.cost.read_path.bandwidth_bps);
      io_.opens.inc();
      io_.bytes_read.inc(file->size());
      io_.open_us.record(static_cast<std::uint64_t>(timer.elapsed_us()));
      // read_file() reads kReadFileChunk bytes per read(); the answer
      // copies none of them, so each of those reads takes no time here.
      for (std::size_t off = 0; off < file->size(); off += posixfs::kReadFileChunk) {
        io_.read_us.record(0);
      }
      out->rc = 0;
      out->data = as_view(file->plain());
      out->pin = std::make_shared<const ServePin>(&cache_, path, std::move(file));
      return true;
    }
  }
  return false;
}

int FanStoreFs::opendir(std::string_view path_in) {
  const std::string path = posixfs::normalize_path(path_in);
  charge_metadata();
  // A sharded store only indexes directories whose children hash here, so
  // existence and listing union across ranks (local under full replication).
  if (!cluster_->dir_exists_union(path)) return -ENOENT;
  std::vector<posixfs::Dirent> entries = cluster_->list_union(path);
  sync::MutexLock lk(dir_mu_);
  const int h = next_dir_++;
  open_dirs_[h] = OpenDir{std::move(entries), 0};
  return h;
}

std::optional<posixfs::Dirent> FanStoreFs::readdir(int dir_handle) {
  charge_metadata();
  sync::MutexLock lk(dir_mu_);
  const auto it = open_dirs_.find(dir_handle);
  if (it == open_dirs_.end()) return std::nullopt;
  if (it->second.next >= it->second.entries.size()) return std::nullopt;
  return it->second.entries[it->second.next++];
}

int FanStoreFs::closedir(int dir_handle) {
  sync::MutexLock lk(dir_mu_);
  return open_dirs_.erase(dir_handle) > 0 ? 0 : -EBADF;
}

}  // namespace fanstore::core
