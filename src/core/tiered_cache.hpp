// Tiered cache hierarchy (DESIGN.md §12): the plain-RAM PlainCache extended
// into a four-tier stack behind the same acquire/release interface —
//
//   tier 0  plain RAM        decompressed entries, sharded pool (PlainCache)
//   tier 1  compressed RAM   entries in their chunked-frame form; a hit
//                            comes back lazy, so per-range decode stays
//                            cheap
//   tier 2  SSD spill        crc-framed spill records on a local Vfs,
//                            charged against an ssd StorageModel
//   tier 3  peer RAM         the owner rank's backend via the cold loader
//                            (a fetch from the owner's daemon)
//   cold    local backend    the rank's own compressed partition
//
// Every compressed object is a chunked frame (format::make_record); only
// stored (id 0) blobs are plain bytes. Eviction from tier N is *demotion*
// into tier N+1: the PlainCache demotion hook feeds tier 1 (an entry's
// frame) or tier 2 (a stored blob's plain bytes); tier-1 eviction spills
// its frame; tier-2 eviction drops the record.
// Promotion is hit-driven — a lower-tier hit always materializes into plain
// RAM (the read path needs decompressed bytes) but the lower-tier copy is
// retained until `promote_after_hits` cumulative hits, so one-shot scans do
// not purge the capacity tiers. Every cold load is admitted to plain RAM.
//
// The clairvoyant EvictionPolicy (DESIGN.md §10) applies per tier: when a
// plan is installed, tier-1 and tier-2 victim scans also pick the entry
// with the farthest next planned use (FIFO tiebreak), matching the plain
// tier's Belady branch.
//
// Concurrency: tier lookups and demotions run with no plain-shard lock held
// (inside the single-flight miss slot, or in the post-unlock demotion
// hook). tiered.compressed.mu and tiered.spill.mu are leaves of the lock
// order; spill-device I/O happens under tiered.spill.mu — the spill tier is
// a single serialized device, like the SSD it models.
//
// With both tier budgets zero the wrapper is pass-through: no tier metrics
// are registered and every byte of behavior is the classic single-pool
// PlainCache.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/cache.hpp"
#include "obs/metrics.hpp"
#include "posixfs/vfs.hpp"
#include "simnet/models.hpp"
#include "simnet/virtual_clock.hpp"
#include "util/bytes.hpp"
#include "util/sync.hpp"

namespace fanstore::core {

/// Where a cold load's bytes came from — tier accounting distinguishes the
/// peer-RAM tier from the rank's own backend.
enum class ColdSource { kLocalBackend, kPeer };

/// What the cold loader hands the tiered cache: the usable entry (a frame
/// entry carries its compressed frame for demotion) and where its bytes
/// came from.
struct ColdResult {
  std::shared_ptr<CachedFile> file;
  ColdSource source = ColdSource::kLocalBackend;
};

/// One decoded spill record (see encode_spill_record for the layout).
struct SpillRecord {
  compress::CompressorId compressor = 0;  // 0 = plain bytes, else a frame
  std::uint64_t original_size = 0;
  std::uint32_t plain_crc = 0;  // checks plain (id 0) payloads; 0 = unknown
  Bytes payload;
};

/// Frames a spill record:
///   u32 crc  | u32 magic "FSP1" | u16 compressor | u64 original_size |
///   u32 plain_crc | payload
/// The leading crc32 covers every byte after itself, so a torn or bit-
/// flipped spill file is rejected before any field is interpreted.
Bytes encode_spill_record(compress::CompressorId compressor,
                          std::uint64_t original_size, std::uint32_t plain_crc,
                          ByteView payload);

/// Parses and crc-verifies a spill record. Throws compress::CorruptDataError
/// on truncation, crc mismatch, or a bad magic — never interprets payload
/// bytes first.
SpillRecord decode_spill_record(ByteView bytes);

class TieredCache {
 public:
  struct Options {
    /// Tier-0 (plain RAM) budget + stripes — exactly PlainCache's options.
    std::size_t plain_bytes = 0;
    std::size_t plain_shards = 0;
    /// Tier-1 (compressed RAM) budget; 0 disables the tier.
    std::size_t compressed_bytes = 0;
    /// Tier-2 (SSD spill) budget; 0 disables the tier.
    std::size_t spill_bytes = 0;
    /// Spill device; nullptr = an internal MemVfs standing in for the
    /// node-local SSD (all device *time* comes from `spill_storage`).
    posixfs::Vfs* spill_fs = nullptr;
    std::string spill_root = ".fanstore-spill";
    /// Cumulative lower-tier hits after which the lower copy is released
    /// upward (the bytes move instead of duplicating). Minimum 1.
    std::size_t promote_after_hits = 2;
    /// Registry for the "cache.*" and (when a tier is enabled) "tier.*"
    /// metrics; nullptr gives the stack a private registry.
    obs::MetricsRegistry* metrics = nullptr;
    /// Virtual-time charging for spill I/O.
    simnet::VirtualClock* clock = nullptr;
    bool charge_costs = false;
    simnet::StorageModel spill_storage = simnet::ssd_storage();
  };

  using ColdLoader = std::function<ColdResult()>;

  explicit TieredCache(Options options);

  /// Tier walk behind PlainCache's single-flight slot: plain hit, else
  /// compressed-RAM hit (re-decoded), else spill hit (crc-verified, device
  /// time charged), else `cold()` (peer fetch / local backend — the caller
  /// owns that policy). Pins the resulting plain-tier entry exactly like
  /// PlainCache::acquire_file.
  std::shared_ptr<CachedFile> acquire_file(const std::string& path,
                                           const ColdLoader& cold);

  /// Plain-tier hit without blocking (PlainCache::try_acquire), counted
  /// like an acquire_file() hit; nullptr when that would need a load.
  std::shared_ptr<CachedFile> try_acquire(const std::string& path);

  /// Forwards PlainCache::release: drops one pin; capacity pressure then
  /// decides when the entry demotes.
  void release(const std::string& path) { plain_.release(path); }

  /// Forwards PlainCache::invalidate: the plain copy failed a check and
  /// leaves without being demoted.
  void invalidate(const std::string& path) { plain_.invalidate(path); }

  /// Forwards PlainCache::recharge (lazy chunk growth); overflow demotes.
  void recharge(const std::string& path);

  bool contains(const std::string& path) const { return plain_.contains(path); }
  /// True when any local tier (plain, compressed, spill) holds `path`.
  bool contains_any(const std::string& path) const;

  /// Applies `policy` to every tier: the plain tier's Belady branch plus
  /// farthest-next-use victim scans in the compressed and spill tiers.
  void set_eviction_policy(const EvictionPolicy* policy);

  // --- Introspection (tests, stats_report) ---
  bool tiers_enabled() const { return tier1_on_ || tier2_on_; }
  /// True with a spill tier: a release() that evicts may then write the
  /// spill device (a plain or compressed-tier victim spills to it).
  bool spill_enabled() const { return tier2_on_; }
  bool compressed_contains(const std::string& path) const;
  bool spill_contains(const std::string& path) const;
  std::size_t compressed_bytes_used() const;
  std::size_t spill_bytes_used() const;

  PlainCache& plain() { return plain_; }
  const PlainCache& plain() const { return plain_; }
  obs::MetricsRegistry& metrics() const { return plain_.metrics(); }

 private:
  /// A tier-1 entry: the chunked frame plus the metadata needed to rebuild
  /// a lazy CachedFile and to decide promotion.
  struct CompressedEntry {
    compress::CompressorId compressor = 0;  // the frame's chunked id
    SharedBytes payload;  // shared with the plain entry it was demoted from
    std::uint64_t original_size = 0;
    std::size_t hits = 0;
    std::list<std::string>::iterator fifo_pos;
  };

  /// A tier-2 entry: the record lives on the spill device; only accounting
  /// stays in RAM.
  struct SpillEntry {
    std::size_t record_bytes = 0;
    std::size_t hits = 0;
    std::list<std::string>::iterator fifo_pos;
  };

  /// PlainCache demotion-hook target: route an evicted tier-0 entry to
  /// tier 1 (its frame) or tier 2 (a stored blob's plain bytes).
  void demote(const std::string& path,
              const std::shared_ptr<CachedFile>& file);

  /// The loader PlainCache runs on a tier-0 miss (single-flight slot, no
  /// shard lock held).
  std::shared_ptr<CachedFile> load_below(const std::string& path,
                                         const ColdLoader& cold);

  std::shared_ptr<CachedFile> lookup_compressed(const std::string& path);
  std::shared_ptr<CachedFile> lookup_spill(const std::string& path);

  /// Inserts into tier 1 (no-op if present); evicted victims spill to
  /// tier 2 after the tier-1 lock is released. Returns false on duplicate.
  bool insert_compressed(const std::string& path, CompressedEntry entry);
  /// Inserts into tier 2 (no-op if present); evicts FIFO/policy victims to
  /// make room; records too large for the budget are dropped. Returns false
  /// on duplicate or drop.
  bool insert_spill(const std::string& path, compress::CompressorId compressor,
                    std::uint64_t original_size, std::uint32_t plain_crc,
                    ByteView payload);

  std::string spill_path(const std::string& path) const;
  void reclaim_spill_locked(const std::string& path, const SpillEntry& e)
      REQUIRES(spill_mu_);
  void charge(double sec) const;

  Options opt_;
  bool tier1_on_ = false;
  bool tier2_on_ = false;
  PlainCache plain_;
  std::unique_ptr<posixfs::Vfs> owned_spill_fs_;  // when not injected
  posixfs::Vfs* spill_fs_ = nullptr;

  mutable sync::Mutex comp_mu_{"tiered.compressed.mu"};
  std::unordered_map<std::string, CompressedEntry> comp_ GUARDED_BY(comp_mu_);
  std::list<std::string> comp_fifo_ GUARDED_BY(comp_mu_);
  std::size_t comp_bytes_ GUARDED_BY(comp_mu_) = 0;

  mutable sync::Mutex spill_mu_{"tiered.spill.mu"};
  std::unordered_map<std::string, SpillEntry> spill_ GUARDED_BY(spill_mu_);
  std::list<std::string> spill_fifo_ GUARDED_BY(spill_mu_);
  std::size_t spill_bytes_ GUARDED_BY(spill_mu_) = 0;

  /// Per-tier Belady advice; mirrors the plain tier's installed policy.
  std::atomic<const EvictionPolicy*> policy_{nullptr};

  // "tier.*" metrics — registered only when a tier is enabled, so the
  // no-tier configuration leaves registries untouched.
  obs::Counter* plain_hits_ = nullptr;
  obs::Counter* comp_hits_ = nullptr;
  obs::Counter* comp_demotes_ = nullptr;
  obs::Counter* comp_promotes_ = nullptr;
  obs::Counter* comp_evictions_ = nullptr;
  obs::Gauge* comp_bytes_gauge_ = nullptr;
  obs::Counter* spill_hits_ = nullptr;
  obs::Counter* spill_demotes_ = nullptr;
  obs::Counter* spill_promotes_ = nullptr;
  obs::Counter* spill_evictions_ = nullptr;
  obs::Counter* spill_corrupt_ = nullptr;
  obs::Counter* spill_bytes_read_ = nullptr;
  obs::Counter* spill_bytes_written_ = nullptr;
  obs::Gauge* spill_bytes_gauge_ = nullptr;
  obs::Counter* peer_hits_ = nullptr;
  obs::Counter* cold_loads_ = nullptr;
  obs::Counter* dropped_ = nullptr;
};

}  // namespace fanstore::core
