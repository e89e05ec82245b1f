// Decompressed-data cache (§IV-C3, Fig. 4): a bounded shared memory pool
// with a refcount-aware FIFO policy. Every file is equally likely to be
// read each iteration, so FIFO is as good as LRU at a fraction of the
// bookkeeping; the one exception is files currently opened by one or more
// I/O threads, which eviction must skip.
//
// Concurrency (hot path, see DESIGN.md "Hot path"): the pool is split into
// N lock-striped shards (N a power of two, keyed by path hash). Each shard
// owns its FIFO, byte budget, and in-flight-load table, so unrelated opens
// never contend. Misses are *single-flight*: concurrent acquires of one
// path run the loader exactly once — the winner loads with no lock held,
// everyone else blocks on the shard's condvar and adopts the result (or the
// loader's exception). Stats live in an obs::MetricsRegistry (names
// "cache.*", see DESIGN.md §7): relaxed-atomic counters the shards bump
// lock-free, read through metrics().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cached_file.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/sync.hpp"

namespace fanstore::core {

/// Pluggable eviction advice (DESIGN.md §10). When a policy is installed
/// via PlainCache::set_eviction_policy(), capacity pressure evicts the
/// unpinned entry whose next use is farthest in the future (exact-future-
/// reuse / Belady — the clairvoyant plan::AccessPlan implements this
/// interface over the known epoch schedule); with no policy installed the
/// classic FIFO scan runs unchanged, byte for byte.
class EvictionPolicy {
 public:
  /// "Never used again" per the known schedule — evicted first.
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  virtual ~EvictionPolicy() = default;

  /// Number of future accesses before `path` is next needed (0 = needed by
  /// the very next access). Consulted under a cache shard lock: must be
  /// cheap, non-blocking, and must never call back into the cache.
  virtual std::uint64_t next_use_distance(const std::string& path) const = 0;
};

class PlainCache {
 public:
  /// `capacity_bytes` bounds the pool; a single entry larger than its
  /// shard's budget is still admitted while pinned (it is evicted on
  /// release). `shards` is rounded up to a power of two; 0 picks a default
  /// that keeps each shard's budget at least 1 MiB (so small caches — unit
  /// tests, tiny configs — degenerate to one shard with exactly the classic
  /// single-pool FIFO semantics). `metrics` receives the "cache.*" counters
  /// and the "cache.bytes_used" gauge; nullptr gives the cache a private
  /// registry (standalone uses keep working unchanged).
  explicit PlainCache(std::size_t capacity_bytes, std::size_t shards = 0,
                      obs::MetricsRegistry* metrics = nullptr);

  /// Returns the cache entry for `path`, pinning it (open-counter + 1). On
  /// miss, `loader` is invoked outside any lock and may throw; the miss is
  /// then not cached and every thread waiting on the same in-flight load
  /// observes the exception. Concurrent misses on one path run `loader`
  /// exactly once (single-flight). `loaded` (if non-null) is set to true
  /// only in the thread whose call ran the loader. The returned entry may
  /// be a lazily-materializing chunked file (see CachedFile).
  std::shared_ptr<CachedFile> acquire_file(
      const std::string& path,
      const std::function<std::shared_ptr<CachedFile>()>& loader,
      bool* loaded = nullptr);

  /// Non-blocking hit: pins and returns `path`'s entry only when it is
  /// resident, not invalidated, verified and fully materialized, counting
  /// a hit exactly like acquire_file(); otherwise returns nullptr and
  /// changes nothing. Never loads and never waits on an in-flight load,
  /// so an event-loop thread may call it.
  std::shared_ptr<CachedFile> try_acquire(const std::string& path);

  /// Re-syncs `path`'s budget accounting with CachedFile::charge_bytes()
  /// after lazy chunks materialized, applying eviction pressure for the
  /// growth. No-op if the entry is gone.
  void recharge(const std::string& path);

  /// Drops one pin (close()); the entry stays cached FIFO-style until
  /// capacity pressure evicts it. An invalidated entry is erased, undemoted,
  /// at its last unpin.
  void release(const std::string& path);

  /// Removes `path` from the cache without demoting it — its bytes failed a
  /// check and must be loaded again, not kept in any tier. An unpinned
  /// entry goes at once; a pinned one is erased at its last unpin (hits
  /// until then still return it, so callers re-check what they get).
  void invalidate(const std::string& path);

  /// Demotion hook (DESIGN.md §12): receives every entry removed by
  /// capacity pressure — never a pinned entry — so evicted bytes
  /// can flow to the next cache tier instead of vanishing. Victims are
  /// collected under the shard lock but the hook runs strictly after it is
  /// released, so the hook may take its own locks and even re-enter this
  /// cache. Install before concurrent use; with no hook installed every
  /// code path is byte-identical to the classic cache.
  using DemotionHook = std::function<void(
      const std::string& path, const std::shared_ptr<CachedFile>& file)>;
  void set_demotion_hook(DemotionHook hook) { demote_ = std::move(hook); }

  bool contains(const std::string& path) const;
  std::size_t bytes_used() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t shard_count() const { return shards_.size(); }

  /// Which shard `path` lives in — introspection for tests/benches that
  /// need colliding or non-colliding key sets.
  std::size_t shard_of(const std::string& path) const;

  /// Current pin count of `path` (0 if absent) — introspection for tests
  /// (e.g. asserting the prefetcher leaks no pins).
  int open_count(const std::string& path) const;

  /// The registry holding this cache's metrics (injected or private):
  /// "cache.hits", "cache.misses", "cache.evictions" and
  /// "cache.single_flight_waits" (acquires that blocked on another
  /// thread's in-flight load of the same path; also counted as hits).
  obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// Installs (nullptr clears) a clairvoyant eviction policy. The policy
  /// must outlive the cache or be cleared first; it is consulted only at
  /// eviction time, so installation mid-run is safe (acquire/release on the
  /// pointer). With no policy installed every code path is byte-identical
  /// to the classic FIFO cache.
  void set_eviction_policy(const EvictionPolicy* policy) {
    policy_.store(policy, std::memory_order_release);
  }
  const EvictionPolicy* eviction_policy() const {
    return policy_.load(std::memory_order_acquire);
  }

 private:
  struct Entry {
    std::shared_ptr<CachedFile> data;
    /// Bytes last accounted against the shard budget (charge_bytes() at
    /// insert/recharge time — a lazy entry's footprint grows as chunks
    /// materialize).
    std::size_t charged = 0;
    int open_count = 0;
    std::list<std::string>::iterator fifo_pos;
    bool in_fifo = false;
    bool invalidated = false;  // invalidate() while pinned
  };

  /// One in-flight miss load; waiters sleep on the shard condvar until
  /// `done`, then take `data` or rethrow `error`.
  struct InFlight {
    bool done = false;
    std::shared_ptr<CachedFile> data;
    std::exception_ptr error;
  };

  struct Shard {
    mutable sync::Mutex mu{"cache.shard.mu"};
    sync::AnnotatedCondVar load_done;  // single-flight completion signal
    std::unordered_map<std::string, Entry> entries GUARDED_BY(mu);
    std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight
        GUARDED_BY(mu);
    std::list<std::string> fifo GUARDED_BY(mu);  // insertion order, oldest first
    std::size_t bytes_used GUARDED_BY(mu) = 0;
    std::size_t budget = 0;  // immutable after construction
  };

  /// A victim collected under the shard lock for the demotion hook, fired
  /// only after the lock is released.
  struct Demoted {
    std::string path;
    std::shared_ptr<CachedFile> data;
  };

  Shard& shard_for(const std::string& path) const;
  /// Belady scan for one victim: the unpinned entry with the farthest next
  /// planned use (FIFO position breaks ties). end() if everything is pinned.
  std::list<std::string>::iterator pick_policy_victim_locked(
      Shard& s, const EvictionPolicy& policy) REQUIRES(s.mu);
  /// Inserts a freshly loaded entry pinned once; applies FIFO pressure.
  std::shared_ptr<CachedFile> insert_pinned_locked(
      Shard& s, const std::string& path, std::shared_ptr<CachedFile> data,
      std::vector<Demoted>* demoted) REQUIRES(s.mu);
  void evict_if_needed_locked(Shard& s, std::vector<Demoted>* demoted)
      REQUIRES(s.mu);
  /// Unlinks one invalidated entry from its shard without demoting it.
  void erase_locked(Shard& s,
                    std::unordered_map<std::string, Entry>::iterator it)
      REQUIRES(s.mu);
  /// Runs the demotion hook over collected victims (no lock held).
  void fire_demotions(std::vector<Demoted>& demoted);

  const std::size_t capacity_;
  std::size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Registry-homed stats (the hit path still does exactly one lock plus
  // one relaxed atomic add; Counter is cache-line padded).
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // when not injected
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* waits_ = nullptr;
  obs::Counter* plan_evictions_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;

  /// Clairvoyant eviction advice; nullptr = classic FIFO (DESIGN.md §10).
  std::atomic<const EvictionPolicy*> policy_{nullptr};

  /// Next-tier sink for evicted entries (DESIGN.md §12); empty = victims
  /// are simply dropped, exactly the classic behavior.
  DemotionHook demote_;
};

}  // namespace fanstore::core
