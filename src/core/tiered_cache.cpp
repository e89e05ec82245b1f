#include "core/tiered_cache.hpp"

#include <cstdio>
#include <utility>
#include <vector>

#include "compress/chunked.hpp"
#include "posixfs/mem_vfs.hpp"
#include "util/crc32.hpp"

namespace fanstore::core {

namespace {

constexpr std::uint32_t kSpillMagic = 0x31505346;  // "FSP1" little-endian
constexpr std::size_t kSpillHeader = 4 + 4 + 2 + 8 + 4;  // 22 bytes

/// The lower tiers pin nothing: every resident key may be a victim.
constexpr auto kAnyKey = [](const std::string&) { return true; };

}  // namespace

Bytes encode_spill_record(compress::CompressorId compressor,
                          std::uint64_t original_size, std::uint32_t plain_crc,
                          ByteView payload) {
  Bytes out;
  out.reserve(kSpillHeader + payload.size());
  append_le<std::uint32_t>(out, 0);  // crc placeholder
  append_le<std::uint32_t>(out, kSpillMagic);
  append_le<std::uint16_t>(out, compressor);
  append_le<std::uint64_t>(out, original_size);
  append_le<std::uint32_t>(out, plain_crc);
  out.insert(out.end(), payload.begin(), payload.end());
  store_le<std::uint32_t>(out.data(),
                          crc32(ByteView{out.data() + 4, out.size() - 4}));
  return out;
}

SpillRecord decode_spill_record(ByteView bytes) {
  // CRC first (DESIGN.md §8 wire-integrity rule): no field — not even the
  // magic — is interpreted until the whole record checks out, so a torn
  // write or flipped bit can never smuggle garbage into the read path.
  if (bytes.size() < kSpillHeader) {
    throw compress::CorruptDataError("spill record truncated");
  }
  const std::uint32_t want = load_le<std::uint32_t>(bytes.data());
  const std::uint32_t got =
      crc32(ByteView{bytes.data() + 4, bytes.size() - 4});
  if (want != got) {
    throw compress::CorruptDataError("spill record crc mismatch");
  }
  if (load_le<std::uint32_t>(bytes.data() + 4) != kSpillMagic) {
    throw compress::CorruptDataError("spill record bad magic");
  }
  SpillRecord r;
  r.compressor = load_le<std::uint16_t>(bytes.data() + 8);
  r.original_size = load_le<std::uint64_t>(bytes.data() + 10);
  r.plain_crc = load_le<std::uint32_t>(bytes.data() + 18);
  r.payload.assign(bytes.begin() + kSpillHeader, bytes.end());
  return r;
}

TieredCache::TieredCache(Options options)
    : opt_(std::move(options)),
      tier1_on_(opt_.compressed_bytes > 0),
      tier2_on_(opt_.spill_bytes > 0),
      plain_(opt_.plain_bytes, opt_.plain_shards, opt_.metrics) {
  if (opt_.promote_after_hits == 0) opt_.promote_after_hits = 1;
  if (tier2_on_) {
    if (opt_.spill_fs != nullptr) {
      spill_fs_ = opt_.spill_fs;
    } else {
      owned_spill_fs_ = std::make_unique<posixfs::MemVfs>();
      spill_fs_ = owned_spill_fs_.get();
    }
  }
  if (!tiers_enabled()) return;  // pass-through: no hook, no tier metrics
  auto& m = plain_.metrics();
  plain_hits_ = &m.counter("tier.plain.hits");
  comp_hits_ = &m.counter("tier.compressed.hits");
  comp_demotes_ = &m.counter("tier.compressed.demotes");
  comp_promotes_ = &m.counter("tier.compressed.promotes");
  comp_evictions_ = &m.counter("tier.compressed.evictions");
  comp_bytes_gauge_ = &m.gauge("tier.compressed.bytes_used");
  spill_hits_ = &m.counter("tier.spill.hits");
  spill_demotes_ = &m.counter("tier.spill.demotes");
  spill_promotes_ = &m.counter("tier.spill.promotes");
  spill_evictions_ = &m.counter("tier.spill.evictions");
  spill_corrupt_ = &m.counter("tier.spill.corrupt");
  spill_bytes_read_ = &m.counter("tier.spill.bytes_read");
  spill_bytes_written_ = &m.counter("tier.spill.bytes_written");
  spill_bytes_gauge_ = &m.gauge("tier.spill.bytes_used");
  peer_hits_ = &m.counter("tier.peer.hits");
  cold_loads_ = &m.counter("tier.cold.loads");
  dropped_ = &m.counter("tier.dropped");
  plain_.set_demotion_hook(
      [this](const std::string& path, const std::shared_ptr<CachedFile>& f) {
        demote(path, f);
      });
}

void TieredCache::charge(double sec) const {
  if (opt_.charge_costs && opt_.clock != nullptr) opt_.clock->advance_sec(sec);
}

std::string TieredCache::spill_path(const std::string& path) const {
  // Hash-named spill files: dataset paths contain '/', and the spill root
  // should stay a flat directory on any Vfs.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016zx",
                std::hash<std::string>{}(path));
  return opt_.spill_root + "/" + buf;
}

std::shared_ptr<CachedFile> TieredCache::acquire_file(const std::string& path,
                                                      const ColdLoader& cold) {
  if (!tiers_enabled()) {
    return plain_.acquire_file(path, [&] {
      ColdResult r = cold();
      return std::move(r.file);
    });
  }
  bool loaded = false;
  auto file = plain_.acquire_file(
      path, [&] { return load_below(path, cold); }, &loaded);
  if (!loaded) plain_hits_->inc();
  return file;
}

std::shared_ptr<CachedFile> TieredCache::try_acquire(const std::string& path) {
  auto file = plain_.try_acquire(path);
  if (file != nullptr && tiers_enabled()) plain_hits_->inc();
  return file;
}

std::shared_ptr<CachedFile> TieredCache::load_below(const std::string& path,
                                                    const ColdLoader& cold) {
  // Runs inside the plain tier's single-flight slot: per-path serialized,
  // no shard lock held, so taking the tier mutexes here is safe.
  if (auto f = lookup_compressed(path)) return f;
  if (auto f = lookup_spill(path)) return f;
  ColdResult r = cold();
  if (r.source == ColdSource::kPeer) {
    peer_hits_->inc();
  } else {
    cold_loads_->inc();
  }
  return std::move(r.file);
}

std::shared_ptr<CachedFile> TieredCache::lookup_compressed(
    const std::string& path) {
  if (!tier1_on_) return nullptr;
  compress::CompressorId compressor = 0;
  SharedBytes payload;
  std::uint64_t original_size = 0;
  bool promote = false;
  {
    sync::MutexLock lk(comp_mu_);
    const auto it = comp_.find(path);
    if (it == comp_.end()) return nullptr;
    CompressedEntry& e = it->second;
    e.hits++;
    compressor = e.compressor;
    original_size = e.original_size;
    // Promote on the Nth hit (default second): the bytes *move* up — the
    // tier-1 copy is erased so plain RAM and compressed RAM never hold the
    // same object twice.
    promote = e.hits >= opt_.promote_after_hits;
    if (promote) {
      payload = std::move(e.payload);
      comp_bytes_ -= payload.size();
      comp_bytes_gauge_->add(-static_cast<std::int64_t>(payload.size()));
      comp_fifo_.erase(e.fifo_pos);
      comp_.erase(it);
    } else {
      payload = e.payload;  // shared: the tier keeps its residency
    }
  }
  comp_hits_->inc();
  if (promote) comp_promotes_->inc();
  // Frames come back lazy: the hit decodes per range exactly like a fresh
  // cold load, which is the point of keeping tier-1 entries in frame form.
  return std::make_shared<CachedFile>(std::move(payload), compressor,
                                      original_size);
}

std::shared_ptr<CachedFile> TieredCache::lookup_spill(const std::string& path) {
  if (!tier2_on_) return nullptr;
  SpillRecord rec;
  bool promote = false;
  {
    sync::MutexLock lk(spill_mu_);
    const auto it = spill_.find(path);
    if (it == spill_.end()) return nullptr;
    SpillEntry& e = it->second;
    // Device read under the tier mutex: the spill device is one SSD and
    // this models its serialized queue (lock order: tiered.spill.mu →
    // mem_vfs.mu, both leaves of everything above them).
    charge(opt_.spill_storage.file_read_time(e.record_bytes));
    const auto raw = posixfs::read_file(*spill_fs_, spill_path(path));
    spill_bytes_read_->inc(static_cast<std::uint64_t>(e.record_bytes));
    try {
      if (!raw.has_value()) {
        throw compress::CorruptDataError("spill record unreadable");
      }
      rec = decode_spill_record(as_view(*raw));
    } catch (const compress::CorruptDataError&) {
      // A corrupt spill record is treated as a device failure for this
      // entry: count it, reclaim the slot, and fall through to colder
      // tiers. Never surfaced as a hit, never as an error.
      spill_corrupt_->inc();
      reclaim_spill_locked(path, e);
      spill_fifo_.erase(e.fifo_pos);
      spill_.erase(it);
      return nullptr;
    }
    e.hits++;
    promote = e.hits >= opt_.promote_after_hits;
    if (promote) {
      reclaim_spill_locked(path, e);
      spill_fifo_.erase(e.fifo_pos);
      spill_.erase(it);
    }
  }
  spill_hits_->inc();
  if (promote) spill_promotes_->inc();
  if (rec.compressor != 0) {
    // A frame comes back lazy; the constructor rejects any other id.
    return std::make_shared<CachedFile>(std::move(rec.payload), rec.compressor,
                                        rec.original_size);
  }
  if (rec.plain_crc != 0 && crc32(as_view(rec.payload)) != rec.plain_crc) {
    throw compress::CorruptDataError("tiered plain payload crc mismatch");
  }
  return std::make_shared<CachedFile>(std::move(rec.payload));
}

void TieredCache::demote(const std::string& path,
                         const std::shared_ptr<CachedFile>& file) {
  // Runs with no plain-shard lock held (PlainCache fires the hook after
  // unlocking). Frame entries carry their compressed frame — demote that
  // form to the compressed tier. Plain-only entries (stored blobs) have
  // only plain bytes, whose RAM footprint equals what was just evicted, so
  // compressed RAM would buy nothing: they go straight to the spill device.
  const bool framed = file->is_chunked();
  if (tier1_on_ && framed) {
    CompressedEntry e;
    e.compressor = file->container_id();
    e.payload = file->compressed_bytes();
    e.original_size = file->size();
    // false = already resident below: dedupe, drop this copy.
    if (insert_compressed(path, std::move(e))) comp_demotes_->inc();
    return;
  }
  insert_spill(path, file->container_id(), file->size(),
               framed ? as_view(file->compressed_bytes())
                      : as_view(file->plain()));
}

bool TieredCache::insert_compressed(const std::string& path,
                                    CompressedEntry entry) {
  const std::size_t sz = entry.payload.size();
  if (sz > opt_.compressed_bytes) {
    // Larger than the whole tier: skip straight to spill.
    insert_spill(path, entry.compressor, entry.original_size,
                 as_view(entry.payload));
    return false;
  }
  struct Victim {
    std::string path;
    CompressedEntry entry;
  };
  std::vector<Victim> victims;
  {
    sync::MutexLock lk(comp_mu_);
    if (comp_.count(path) > 0) return false;  // dedupe
    // Admit, then evict: under a plan the newcomer may itself have the
    // farthest next use and go straight on to spill.
    comp_fifo_.push_back(path);
    entry.fifo_pos = std::prev(comp_fifo_.end());
    comp_bytes_ += sz;
    comp_bytes_gauge_->add(static_cast<std::int64_t>(sz));
    comp_.emplace(path, std::move(entry));
    const EvictionPolicy* policy = plain_.eviction_policy();
    while (comp_bytes_ > opt_.compressed_bytes && !comp_fifo_.empty()) {
      const auto pos = pick_victim(comp_fifo_, policy, kAnyKey);
      const auto it = comp_.find(*pos);
      comp_bytes_ -= it->second.payload.size();
      comp_bytes_gauge_->add(
          -static_cast<std::int64_t>(it->second.payload.size()));
      victims.push_back({*pos, std::move(it->second)});
      comp_fifo_.erase(pos);
      comp_.erase(it);
    }
  }
  for (auto& v : victims) {
    comp_evictions_->inc();
    insert_spill(v.path, v.entry.compressor, v.entry.original_size,
                 as_view(v.entry.payload));
  }
  return true;
}

void TieredCache::reclaim_spill_locked(const std::string& path,
                                       const SpillEntry& e) {
  // Vfs has no unlink; overwriting with an empty file releases the bytes
  // (MemVfs write-open truncates) and keeps the accounting exact.
  posixfs::write_file(*spill_fs_, spill_path(path), ByteView{});
  spill_bytes_ -= e.record_bytes;
  spill_bytes_gauge_->add(-static_cast<std::int64_t>(e.record_bytes));
}

void TieredCache::insert_spill(const std::string& path,
                               compress::CompressorId compressor,
                               std::uint64_t original_size, ByteView payload) {
  const std::size_t record_bytes = kSpillHeader + payload.size();
  if (!tier2_on_ || record_bytes > opt_.spill_bytes) {
    dropped_->inc();  // no spill tier, or larger than all of it
    return;
  }
  // Frames check themselves; plain (id 0) bytes carry a crc of their own.
  const std::uint32_t plain_crc = compressor == 0 ? crc32(payload) : 0;
  const Bytes record =
      encode_spill_record(compressor, original_size, plain_crc, payload);
  std::size_t evicted = 0;
  {
    sync::MutexLock lk(spill_mu_);
    if (spill_.count(path) > 0) return;  // dedupe
    // Evict, then write: the record being written is never its own victim.
    const EvictionPolicy* policy = plain_.eviction_policy();
    while (spill_bytes_ + record_bytes > opt_.spill_bytes &&
           !spill_fifo_.empty()) {
      const auto pos = pick_victim(spill_fifo_, policy, kAnyKey);
      const auto it = spill_.find(*pos);
      reclaim_spill_locked(*pos, it->second);
      spill_fifo_.erase(pos);
      spill_.erase(it);
      evicted++;
    }
    charge(opt_.spill_storage.file_write_time(record_bytes));
    if (posixfs::write_file(*spill_fs_, spill_path(path), as_view(record)) !=
        0) {
      dropped_->inc();  // spill device full/failed: entry falls to cold
      return;
    }
    SpillEntry e;
    e.record_bytes = record_bytes;
    spill_fifo_.push_back(path);
    e.fifo_pos = std::prev(spill_fifo_.end());
    spill_bytes_ += record_bytes;
    spill_bytes_gauge_->add(static_cast<std::int64_t>(record_bytes));
    spill_.emplace(path, std::move(e));
    spill_bytes_written_->inc(static_cast<std::uint64_t>(record_bytes));
  }
  spill_evictions_->inc(static_cast<std::uint64_t>(evicted));
  spill_demotes_->inc();
}

void TieredCache::recharge(const std::string& path) { plain_.recharge(path); }

bool TieredCache::contains_any(const std::string& path) const {
  if (plain_.contains(path)) return true;
  if (tier1_on_) {
    sync::MutexLock lk(comp_mu_);
    if (comp_.count(path) > 0) return true;
  }
  if (tier2_on_) {
    sync::MutexLock lk(spill_mu_);
    if (spill_.count(path) > 0) return true;
  }
  return false;
}

bool TieredCache::compressed_contains(const std::string& path) const {
  sync::MutexLock lk(comp_mu_);
  return comp_.count(path) > 0;
}

bool TieredCache::spill_contains(const std::string& path) const {
  sync::MutexLock lk(spill_mu_);
  return spill_.count(path) > 0;
}

std::size_t TieredCache::compressed_bytes_used() const {
  sync::MutexLock lk(comp_mu_);
  return comp_bytes_;
}

std::size_t TieredCache::spill_bytes_used() const {
  sync::MutexLock lk(spill_mu_);
  return spill_bytes_;
}

}  // namespace fanstore::core
