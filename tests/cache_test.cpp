// Tests for the refcount-aware FIFO cache (§IV-C3, Fig. 4) and its
// sharded single-flight concurrency layer. Small-capacity caches
// auto-degenerate to one shard, so the classic FIFO tests below exercise
// exactly the seed semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "compress/chunked.hpp"
#include "compress/registry.hpp"
#include "core/cache.hpp"
#include "core/tiered_cache.hpp"

namespace fanstore::core {
namespace {

Bytes blob(std::size_t n, std::uint8_t fill) { return Bytes(n, fill); }

/// A plain cache entry of `n` bytes of `fill`, as a loader returns it.
std::shared_ptr<CachedFile> entry(std::size_t n, std::uint8_t fill) {
  return std::make_shared<CachedFile>(blob(n, fill));
}

TEST(PlainCacheTest, HitAfterMiss) {
  PlainCache cache(1024);
  int loads = 0;
  auto loader = [&] {
    ++loads;
    return entry(100, 1);
  };
  bool loaded = false;
  auto a = cache.acquire_file("f", loader, &loaded);
  EXPECT_TRUE(loaded);
  auto b = cache.acquire_file("f", loader, &loaded);
  EXPECT_FALSE(loaded);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.metrics().counter("cache.hits").value(), 1u);
  EXPECT_EQ(cache.metrics().counter("cache.misses").value(), 1u);
  cache.release("f");
  cache.release("f");
}

TEST(PlainCacheTest, FifoEvictionOrder) {
  PlainCache cache(250);
  cache.acquire_file("a", [] { return entry(100, 1); });
  cache.release("a");
  cache.acquire_file("b", [] { return entry(100, 2); });
  cache.release("b");
  // Inserting c (100 B) exceeds 250: the oldest unpinned entry (a) goes.
  cache.acquire_file("c", [] { return entry(100, 3); });
  cache.release("c");
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_TRUE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_EQ(cache.metrics().counter("cache.evictions").value(), 1u);
}

TEST(PlainCacheTest, PinnedEntriesSurviveEviction) {
  // The paper's FIFO variant: entries opened by an I/O thread are skipped.
  PlainCache cache(250);
  // "a" stays pinned.
  auto pin_a = cache.acquire_file("a", [] { return entry(100, 1); });
  cache.acquire_file("b", [] { return entry(100, 2); });
  cache.release("b");
  // Pressure: must skip "a".
  cache.acquire_file("c", [] { return entry(100, 3); });
  cache.release("c");
  EXPECT_TRUE(cache.contains("a"));   // pinned: skipped
  EXPECT_FALSE(cache.contains("b"));  // oldest unpinned: evicted
  EXPECT_TRUE(cache.contains("c"));
  // Releasing "a" under continued pressure allows its eviction.
  cache.release("a");
  cache.acquire_file("d", [] { return entry(100, 4); });
  cache.release("d");
  EXPECT_FALSE(cache.contains("a"));
}

TEST(PlainCacheTest, MultiReaderCounting) {
  // Fig. 4: the counter tracks concurrent opens; the entry is evictable
  // only when every opener has closed.
  PlainCache cache(150);
  cache.acquire_file("f", [] { return entry(100, 1); });
  cache.acquire_file("f", [] { return entry(100, 1); });  // second reader
  cache.release("f");                                     // one closes
  cache.acquire_file("g", [] { return entry(100, 2); });  // pressure
  cache.release("g");
  EXPECT_TRUE(cache.contains("f"));  // still pinned by reader #2
  cache.release("f");
  cache.acquire_file("h", [] { return entry(100, 3); });
  cache.release("h");
  EXPECT_FALSE(cache.contains("f"));
}

TEST(PlainCacheTest, OversizedEntryAdmittedWhilePinned) {
  PlainCache cache(50);
  auto pin = cache.acquire_file("big", [] { return entry(500, 9); });
  EXPECT_EQ(pin->size(), 500u);
  EXPECT_TRUE(cache.contains("big"));
  cache.release("big");
  EXPECT_FALSE(cache.contains("big"));  // evicted once released
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(PlainCacheTest, LoaderFailureIsNotCached) {
  PlainCache cache(1000);
  EXPECT_THROW(cache.acquire_file("f",
                                  []() -> std::shared_ptr<CachedFile> {
                                    throw std::runtime_error("io");
                                  }),
               std::runtime_error);
  EXPECT_FALSE(cache.contains("f"));
  // A later successful load works.
  auto ok = cache.acquire_file("f", [] { return entry(10, 1); });
  EXPECT_EQ(ok->size(), 10u);
  cache.release("f");
}

TEST(PlainCacheTest, ReleaseUnknownPathIsNoop) {
  PlainCache cache(100);
  cache.release("ghost");
  SUCCEED();
}

TEST(PlainCacheTest, BytesUsedTracksContents) {
  PlainCache cache(1000);
  cache.acquire_file("a", [] { return entry(300, 1); });
  cache.acquire_file("b", [] { return entry(200, 2); });
  EXPECT_EQ(cache.bytes_used(), 500u);
  cache.release("a");
  cache.release("b");
  EXPECT_EQ(cache.bytes_used(), 500u);  // cached until pressure
}

TEST(PlainCacheTest, ConcurrentAcquireReleaseIsSafe) {
  PlainCache cache(10 * 1024);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string path = "f" + std::to_string((t + i) % 20);
        auto data = cache.acquire_file(path, [&] { return entry(512, 7); });
        if (data->size() != 512) failures++;
        cache.release(path);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.bytes_used(), 10u * 1024u + 512u);
}

// --- Sharding -----------------------------------------------------------

// Returns `count` distinct paths that all hash into `shard`.
std::vector<std::string> paths_in_shard(const PlainCache& cache,
                                        std::size_t shard, std::size_t count) {
  std::vector<std::string> out;
  for (int i = 0; out.size() < count; ++i) {
    std::string p = "p" + std::to_string(i);
    if (cache.shard_of(p) == shard) out.push_back(std::move(p));
  }
  return out;
}

TEST(ShardedCacheTest, SmallCapacityDegeneratesToOneShard) {
  PlainCache cache(1024);  // < 1 MiB: exactly the classic single pool
  EXPECT_EQ(cache.shard_count(), 1u);
}

TEST(ShardedCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  PlainCache cache(64 << 20, 5);
  EXPECT_EQ(cache.shard_count(), 8u);
}

TEST(ShardedCacheTest, CapacityEnforcedPerShardAndGlobally) {
  PlainCache cache(4096, 4);  // 1024 B budget per shard
  ASSERT_EQ(cache.shard_count(), 4u);
  // Overfill shard 0: the third 400 B entry pushes past its 1024 B budget
  // and must evict that shard's oldest unpinned entry...
  const auto in0 = paths_in_shard(cache, 0, 3);
  // ...while an entry in another shard feels no pressure at all.
  const auto other = paths_in_shard(cache, 1, 1);
  cache.acquire_file(other[0], [] { return entry(400, 9); });
  cache.release(other[0]);
  for (const auto& p : in0) {
    cache.acquire_file(p, [] { return entry(400, 1); });
    cache.release(p);
  }
  EXPECT_FALSE(cache.contains(in0[0]));  // oldest in shard 0: evicted
  EXPECT_TRUE(cache.contains(in0[1]));
  EXPECT_TRUE(cache.contains(in0[2]));
  EXPECT_TRUE(cache.contains(other[0]));  // untouched shard
  EXPECT_EQ(cache.metrics().counter("cache.evictions").value(), 1u);
  EXPECT_LE(cache.bytes_used(), cache.capacity());
}

TEST(ShardedCacheTest, PinnedEntriesSkipEvictionAcrossShards) {
  PlainCache cache(4096, 4);
  const auto in0 = paths_in_shard(cache, 0, 3);
  // in0[0] stays pinned.
  auto pin = cache.acquire_file(in0[0], [] { return entry(400, 1); });
  for (std::size_t i = 1; i < in0.size(); ++i) {
    cache.acquire_file(in0[i], [] { return entry(400, 2); });
    cache.release(in0[i]);
  }
  EXPECT_TRUE(cache.contains(in0[0]));   // pinned: skipped under pressure
  EXPECT_FALSE(cache.contains(in0[1]));  // oldest unpinned: evicted
  EXPECT_TRUE(cache.contains(in0[2]));
  cache.release(in0[0]);
}

TEST(ShardedCacheTest, OversizedPinnedEntryEvictedOnRelease) {
  PlainCache cache(4096, 4);  // 1024 B budget per shard
  const auto p = paths_in_shard(cache, 2, 1);
  auto pin = cache.acquire_file(p[0], [] { return entry(3000, 7); });
  EXPECT_TRUE(cache.contains(p[0]));  // over budget but pinned: admitted
  cache.release(p[0]);
  EXPECT_FALSE(cache.contains(p[0]));  // evicted the moment the pin drops
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ShardedCacheTest, OpenCountTracksPins) {
  PlainCache cache(4096);
  EXPECT_EQ(cache.open_count("f"), 0);
  cache.acquire_file("f", [] { return entry(10, 1); });
  cache.acquire_file("f", [] { return entry(10, 1); });
  EXPECT_EQ(cache.open_count("f"), 2);
  cache.release("f");
  EXPECT_EQ(cache.open_count("f"), 1);
  cache.release("f");
  EXPECT_EQ(cache.open_count("f"), 0);  // cached but unpinned
  EXPECT_TRUE(cache.contains("f"));
}

// --- Single-flight ------------------------------------------------------

// Regression for the seed's duplicate-work window: two threads missing the
// same path both ran the loader and the loser's insert double-charged the
// pool. Under single-flight the loader must run exactly once however many
// threads race the miss.
TEST(SingleFlightTest, LoaderRunsOnceUnderConcurrentAcquires) {
  PlainCache cache(1 << 20);
  std::atomic<int> loader_runs{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<CachedFile>> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] = cache.acquire_file("hot", [&] {
        loader_runs.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return entry(4096, 5);
      });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(loader_runs.load(), 1);
  const auto s = cache.metrics().snapshot();
  EXPECT_EQ(s.counter("cache.misses"), 1u);
  EXPECT_EQ(s.counter("cache.hits"), static_cast<std::uint64_t>(kThreads) - 1);
  EXPECT_GE(s.counter("cache.single_flight_waits"), 1u);
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), results[0].get());  // all adopted the one load
  }
  EXPECT_EQ(cache.open_count("hot"), kThreads);  // every caller holds a pin
  EXPECT_EQ(cache.bytes_used(), 4096u);          // charged exactly once
  for (int t = 0; t < kThreads; ++t) cache.release("hot");
}

TEST(SingleFlightTest, LoaderFailurePropagatesToAllWaiters) {
  PlainCache cache(1 << 20);
  std::atomic<int> loader_runs{0};
  std::atomic<int> caught{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      try {
        cache.acquire_file("bad", [&]() -> std::shared_ptr<CachedFile> {
          loader_runs.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          throw std::runtime_error("io");
        });
      } catch (const std::runtime_error&) {
        caught.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every thread observed a failure; a thread that arrived after one
  // in-flight load failed may have started its own, so the loader may run
  // more than once — but never cached anything.
  EXPECT_EQ(caught.load(), 6);
  EXPECT_GE(loader_runs.load(), 1);
  EXPECT_FALSE(cache.contains("bad"));
  // A later successful load still works.
  auto ok = cache.acquire_file("bad", [] { return entry(10, 1); });
  EXPECT_EQ(ok->size(), 10u);
  cache.release("bad");
}

// ---- Tiered cache (DESIGN.md §12) --------------------------------------

TEST(DemotionHookTest, EvictedVictimsFlowToHookAfterUnlock) {
  PlainCache cache(250);
  std::vector<std::string> demoted;
  cache.set_demotion_hook(
      [&](const std::string& path, const std::shared_ptr<CachedFile>& file) {
        ASSERT_NE(file, nullptr);
        // The hook may re-enter the cache: no shard lock is held here.
        EXPECT_FALSE(cache.contains(path));
        demoted.push_back(path);
      });
  cache.acquire_file("a", [] { return entry(100, 1); });
  cache.release("a");
  cache.acquire_file("b", [] { return entry(100, 2); });
  cache.release("b");
  // Pressure: evicts "a".
  cache.acquire_file("c", [] { return entry(100, 3); });
  cache.release("c");
  ASSERT_EQ(demoted.size(), 1u);
  EXPECT_EQ(demoted[0], "a");
  EXPECT_EQ(cache.metrics().counter("cache.evictions").value(), 1u);
}

TEST(DemotionHookTest, InvalidatedEntriesLeaveWithoutDemotion) {
  PlainCache cache(1 << 20);
  int demoted = 0;
  cache.set_demotion_hook(
      [&](const std::string&, const std::shared_ptr<CachedFile>&) { ++demoted; });
  // Unpinned: gone at once.
  cache.acquire_file("a", [] { return entry(100, 1); });
  cache.release("a");
  cache.invalidate("a");
  EXPECT_FALSE(cache.contains("a"));
  // Pinned twice: stays until the last unpin.
  cache.acquire_file("b", [] { return entry(100, 2); });
  cache.acquire_file("b", [] { return entry(100, 2); });
  cache.invalidate("b");
  cache.release("b");
  EXPECT_TRUE(cache.contains("b"));
  cache.release("b");
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_EQ(demoted, 0);
  EXPECT_EQ(cache.bytes_used(), 0u);
  // The next acquire loads again.
  bool loaded = false;
  cache.acquire_file("b", [] { return entry(100, 3); }, &loaded);
  EXPECT_TRUE(loaded);
  cache.release("b");
  EXPECT_EQ(cache.metrics().counter("cache.evictions").value(), 0u);
}

/// A chunked cold object for tier tests: constant fill compresses well, so
/// the frame is far smaller than the 16 KiB plain size.
struct ChunkedObject {
  compress::CompressorId id = 0;
  Bytes plain;
  Bytes compressed;
};

ChunkedObject make_chunked(std::uint8_t fill, std::size_t n = 16384) {
  ChunkedObject o;
  o.plain = blob(n, fill);
  o.id = compress::chunked_id(
      compress::Registry::instance().id_by_name("lz4"), 4096);
  o.compressed =
      compress::Registry::instance().by_id(o.id)->compress(as_view(o.plain));
  return o;
}

TieredCache::ColdLoader cold_of(const ChunkedObject& o, int* calls = nullptr) {
  return [&o, calls] {
    if (calls != nullptr) ++*calls;
    ColdResult r;
    r.file = std::make_shared<CachedFile>(Bytes(o.compressed), o.id,
                                          o.plain.size());
    return r;
  };
}

/// acquire + full materialization + budget resync — what FanStoreFs's eager
/// open path does.
std::shared_ptr<CachedFile> acquire_hot(TieredCache& tc,
                                        const std::string& path,
                                        const TieredCache::ColdLoader& cold) {
  auto f = tc.acquire_file(path, cold);
  f->materialize_all(1, nullptr);
  tc.recharge(path);
  return f;
}

TEST(TieredCacheTest, DemoteToCompressedHitAndPromoteOnSecondHit) {
  // Plain budget holds exactly one materialized 16 KiB entry; the
  // compressed tier is effectively unbounded; promote on second hit.
  TieredCache::Options opt;
  opt.plain_bytes = 20000;
  opt.compressed_bytes = 1 << 20;
  opt.promote_after_hits = 2;
  TieredCache tc(opt);
  auto& m = tc.metrics();
  const auto a = make_chunked(1);
  const auto b = make_chunked(2);
  int cold_a = 0;
  int cold_b = 0;

  acquire_hot(tc, "a", cold_of(a, &cold_a));
  tc.release("a");
  acquire_hot(tc, "b", cold_of(b, &cold_b));  // recharge evicts "a" → tier 1
  tc.release("b");
  EXPECT_TRUE(tc.compressed_contains("a"));
  EXPECT_FALSE(tc.plain().contains("a"));
  EXPECT_EQ(m.counter("tier.compressed.demotes").value(), 1u);
  EXPECT_EQ(tc.compressed_bytes_used(), a.compressed.size());

  // First tier-1 hit: rebuilt into plain RAM, tier-1 copy retained.
  auto fa = acquire_hot(tc, "a", cold_of(a, &cold_a));  // evicts "b" → tier 1
  EXPECT_EQ(cold_a, 1);  // served from the compressed tier, not cold
  EXPECT_TRUE(tc.compressed_contains("a"));
  EXPECT_EQ(fa->plain(), a.plain);
  tc.release("a");
  EXPECT_TRUE(tc.compressed_contains("b"));

  // First tier-1 hit for "b"; its insert demotes "a" again, which dedupes
  // against the still-resident tier-1 copy.
  acquire_hot(tc, "b", cold_of(b, &cold_b));
  EXPECT_EQ(cold_b, 1);
  tc.release("b");
  EXPECT_TRUE(tc.compressed_contains("a"));

  // Second tier-1 hit for "a": promoted — the tier-1 copy moves up.
  auto fa2 = acquire_hot(tc, "a", cold_of(a, &cold_a));
  EXPECT_EQ(cold_a, 1);
  EXPECT_FALSE(tc.compressed_contains("a"));
  EXPECT_EQ(fa2->plain(), a.plain);
  tc.release("a");

  EXPECT_EQ(m.counter("tier.compressed.hits").value(), 3u);
  EXPECT_EQ(m.counter("tier.compressed.promotes").value(), 1u);
  EXPECT_EQ(m.counter("tier.cold.loads").value(), 2u);
  // Identity: every plain miss resolved exactly one tier below.
  EXPECT_EQ(m.counter("cache.misses").value(),
            m.counter("tier.compressed.hits").value() +
                m.counter("tier.cold.loads").value());
}

TEST(TieredCacheTest, FlatEntriesSpillAndPromoteBack) {
  // No compressed tier: flat victims go straight to the crc-framed spill
  // device; promote on first hit so the round trip is observable.
  TieredCache::Options opt;
  opt.plain_bytes = 250;
  opt.spill_bytes = 10000;
  opt.promote_after_hits = 1;
  TieredCache tc(opt);
  auto& m = tc.metrics();
  auto flat = [](std::uint8_t fill) -> TieredCache::ColdLoader {
    return [fill] {
      ColdResult r;
      r.file = std::make_shared<CachedFile>(blob(100, fill));
      return r;
    };
  };
  tc.acquire_file("a", flat(1));
  tc.release("a");
  tc.acquire_file("b", flat(2));
  tc.release("b");
  tc.acquire_file("c", flat(3));  // evicts "a" → spill record (22 B header)
  tc.release("c");
  EXPECT_TRUE(tc.spill_contains("a"));
  EXPECT_EQ(tc.spill_bytes_used(), 122u);
  EXPECT_EQ(m.counter("tier.spill.demotes").value(), 1u);
  EXPECT_EQ(m.counter("tier.spill.bytes_written").value(), 122u);

  // Spill hit: crc-verified, promoted on first hit (record reclaimed); the
  // re-insert pressure pushes "b" down in its place.
  auto fa = tc.acquire_file("a", flat(1));
  EXPECT_EQ(fa->plain(), blob(100, 1));
  EXPECT_FALSE(tc.spill_contains("a"));
  EXPECT_TRUE(tc.spill_contains("b"));
  tc.release("a");
  EXPECT_EQ(m.counter("tier.spill.hits").value(), 1u);
  EXPECT_EQ(m.counter("tier.spill.promotes").value(), 1u);
  EXPECT_EQ(m.counter("tier.spill.bytes_read").value(), 122u);
  EXPECT_EQ(tc.spill_bytes_used(), 122u);  // only "b" remains
  EXPECT_EQ(m.counter("cache.misses").value(),
            m.counter("tier.spill.hits").value() +
                m.counter("tier.cold.loads").value());
}

TEST(TieredCacheTest, CompressedOverflowSpillsOldestFrame) {
  const auto a = make_chunked(1);
  const auto b = make_chunked(2);
  const auto c = make_chunked(3);
  TieredCache::Options opt;
  opt.plain_bytes = 20000;  // one materialized entry
  // Holds one compressed frame but not two.
  opt.compressed_bytes = a.compressed.size() + a.compressed.size() / 2;
  opt.spill_bytes = 1 << 20;
  TieredCache tc(opt);
  acquire_hot(tc, "a", cold_of(a));
  tc.release("a");
  acquire_hot(tc, "b", cold_of(b));  // "a" → tier 1
  tc.release("b");
  EXPECT_TRUE(tc.compressed_contains("a"));
  acquire_hot(tc, "c", cold_of(c));  // "b" → tier 1, which evicts "a" → spill
  tc.release("c");
  EXPECT_TRUE(tc.compressed_contains("b"));
  EXPECT_FALSE(tc.compressed_contains("a"));
  EXPECT_TRUE(tc.spill_contains("a"));
  auto& m = tc.metrics();
  EXPECT_EQ(m.counter("tier.compressed.evictions").value(), 1u);
  EXPECT_EQ(m.counter("tier.spill.demotes").value(), 1u);
  // The spilled frame still round-trips: a spill hit rebuilds "a" exactly.
  auto fa = acquire_hot(tc, "a", cold_of(a));
  EXPECT_EQ(fa->plain(), a.plain);
  tc.release("a");
}

class MapPolicy : public EvictionPolicy {
 public:
  std::map<std::string, std::uint64_t> distance;
  std::uint64_t next_use_distance(const std::string& path) const override {
    const auto it = distance.find(path);
    return it == distance.end() ? kNever : it->second;
  }
};

TEST(TieredCacheTest, BeladyPolicyAppliesPerTier) {
  const auto a = make_chunked(1);
  const auto b = make_chunked(2);
  const auto c = make_chunked(3);
  const auto d = make_chunked(4);
  TieredCache::Options opt;
  opt.plain_bytes = 20000;
  opt.compressed_bytes = 2 * a.compressed.size() + a.compressed.size() / 2;
  opt.spill_bytes = 1 << 20;
  opt.promote_after_hits = 100;  // promotion out of the picture
  TieredCache tc(opt);
  // Fill tier 1 with {a, b} via plain-tier pressure.
  acquire_hot(tc, "a", cold_of(a));
  tc.release("a");
  acquire_hot(tc, "b", cold_of(b));
  tc.release("b");
  acquire_hot(tc, "c", cold_of(c));
  tc.release("c");
  ASSERT_TRUE(tc.compressed_contains("a"));
  ASSERT_TRUE(tc.compressed_contains("b"));
  // Clairvoyant plan: "b" is needed farthest in the future.
  MapPolicy policy;
  policy.distance = {{"a", 5}, {"b", 10}, {"c", 1}, {"d", 2}};
  tc.set_eviction_policy(&policy);
  // "d" pushes "c" into tier 1; the tier-1 victim must be "b" (farthest
  // next use), not "a" (FIFO head).
  acquire_hot(tc, "d", cold_of(d));
  tc.release("d");
  EXPECT_TRUE(tc.compressed_contains("a"));
  EXPECT_TRUE(tc.compressed_contains("c"));
  EXPECT_FALSE(tc.compressed_contains("b"));
  EXPECT_TRUE(tc.spill_contains("b"));
  tc.set_eviction_policy(nullptr);
}

TEST(TieredCacheTest, CompressedNewcomerWithFarthestNextUseGoesToSpill) {
  const auto a = make_chunked(1);
  const auto b = make_chunked(2);
  const auto c = make_chunked(3);
  const auto d = make_chunked(4);
  TieredCache::Options opt;
  opt.plain_bytes = 20000;
  opt.compressed_bytes = 2 * a.compressed.size() + a.compressed.size() / 2;
  opt.spill_bytes = 1 << 20;
  opt.promote_after_hits = 100;
  TieredCache tc(opt);
  const std::pair<const char*, const ChunkedObject*> fill[] = {
      {"a", &a}, {"b", &b}, {"c", &c}};
  for (const auto& [path, obj] : fill) {
    acquire_hot(tc, path, cold_of(*obj));
    tc.release(path);
  }
  ASSERT_TRUE(tc.compressed_contains("a"));
  ASSERT_TRUE(tc.compressed_contains("b"));
  MapPolicy policy;
  policy.distance = {{"a", 5}, {"b", 1}, {"c", 10}, {"d", 2}};
  tc.set_eviction_policy(&policy);
  // "d" pushes "c" into tier 1, which admits it and then evicts: "c" has
  // the farthest next use, so it is its own victim and goes on to spill.
  acquire_hot(tc, "d", cold_of(d));
  tc.release("d");
  EXPECT_TRUE(tc.compressed_contains("a"));
  EXPECT_TRUE(tc.compressed_contains("b"));
  EXPECT_FALSE(tc.compressed_contains("c"));
  EXPECT_TRUE(tc.spill_contains("c"));
  auto& m = tc.metrics();
  EXPECT_EQ(m.counter("tier.compressed.demotes").value(), 3u);
  EXPECT_EQ(m.counter("tier.compressed.evictions").value(), 1u);
  EXPECT_EQ(m.counter("tier.spill.demotes").value(), 1u);
  tc.set_eviction_policy(nullptr);
}

TieredCache::ColdLoader flat_of(std::uint8_t fill, std::size_t n = 100) {
  return [fill, n] {
    ColdResult r;
    r.file = std::make_shared<CachedFile>(blob(n, fill));
    return r;
  };
}

/// Flat 100-byte blobs skip the compressed tier: plain RAM holds one, the
/// spill tier three 122-byte records.
TieredCache::Options flat_spill_options() {
  TieredCache::Options opt;
  opt.plain_bytes = 150;
  opt.spill_bytes = 3 * 122;
  opt.promote_after_hits = 100;
  return opt;
}

void touch_flat(TieredCache& tc, std::initializer_list<const char*> paths) {
  for (const char* p : paths) {
    tc.acquire_file(p, flat_of(static_cast<std::uint8_t>(p[0])));
    tc.release(p);
  }
}

TEST(TieredCacheTest, SpillTierUnderPlanEvictsFarthestNextUse) {
  TieredCache tc(flat_spill_options());
  touch_flat(tc, {"a", "b", "c", "d"});  // a, b, c spilled; d in plain RAM
  ASSERT_EQ(tc.spill_bytes_used(), 3 * 122u);
  MapPolicy policy;
  policy.distance = {{"a", 1}, {"b", 10}, {"c", 5}, {"d", 2}, {"e", 0}};
  tc.set_eviction_policy(&policy);
  // "e" demotes "d" to a full spill tier, whose victim must be "b"
  // (farthest next use), not "a" (FIFO head).
  touch_flat(tc, {"e"});
  EXPECT_TRUE(tc.spill_contains("a"));
  EXPECT_FALSE(tc.spill_contains("b"));
  EXPECT_TRUE(tc.spill_contains("c"));
  EXPECT_TRUE(tc.spill_contains("d"));
  EXPECT_EQ(tc.metrics().counter("tier.spill.evictions").value(), 1u);
  tc.set_eviction_policy(nullptr);
}

TEST(TieredCacheTest, SpillTierNeverEvictsTheRecordItWrites) {
  TieredCache tc(flat_spill_options());
  touch_flat(tc, {"a", "b", "c", "d"});
  MapPolicy policy;
  // "d" is not in the plan (kNever), so it is the farthest next use of
  // all; the spill tier evicts before it writes, so "d" still lands and
  // the farthest of the records already there ("b") makes room.
  policy.distance = {{"a", 1}, {"b", 3}, {"c", 2}, {"e", 0}};
  tc.set_eviction_policy(&policy);
  touch_flat(tc, {"e"});
  EXPECT_TRUE(tc.spill_contains("d"));
  EXPECT_FALSE(tc.spill_contains("b"));
  EXPECT_TRUE(tc.spill_contains("a"));
  EXPECT_TRUE(tc.spill_contains("c"));
  auto& m = tc.metrics();
  EXPECT_EQ(m.counter("tier.spill.demotes").value(), 4u);
  EXPECT_EQ(m.counter("tier.spill.evictions").value(), 1u);
  EXPECT_EQ(m.counter("tier.dropped").value(), 0u);
  tc.set_eviction_policy(nullptr);
}

TEST(TieredCacheTest, CompressedVictimWithSpillOffCountsOneDrop) {
  const auto a = make_chunked(1);
  const auto b = make_chunked(2);
  const auto c = make_chunked(3);
  TieredCache::Options opt;
  opt.plain_bytes = 20000;
  opt.compressed_bytes = a.compressed.size() + a.compressed.size() / 2;
  TieredCache tc(opt);  // no spill tier
  ASSERT_FALSE(tc.spill_enabled());
  const std::pair<const char*, const ChunkedObject*> fill[] = {
      {"a", &a}, {"b", &b}, {"c", &c}};
  for (const auto& [path, obj] : fill) {
    acquire_hot(tc, path, cold_of(*obj));
    tc.release(path);
  }
  // "b" entered tier 1 and evicted "a", which had nowhere to go.
  EXPECT_TRUE(tc.compressed_contains("b"));
  EXPECT_FALSE(tc.compressed_contains("a"));
  EXPECT_FALSE(tc.spill_contains("a"));
  auto& m = tc.metrics();
  EXPECT_EQ(m.counter("tier.compressed.evictions").value(), 1u);
  EXPECT_EQ(m.counter("tier.dropped").value(), 1u);
  EXPECT_EQ(m.counter("tier.spill.demotes").value(), 0u);
}

class NeverPolicy : public EvictionPolicy {
 public:
  std::uint64_t next_use_distance(const std::string&) const override {
    return kNever;
  }
};

struct TierTrace {
  std::vector<std::string> residency;  // per step: P/C/S/- per key
  std::uint64_t plain_evictions = 0;
  std::uint64_t compressed_evictions = 0;
  std::uint64_t spill_evictions = 0;
  std::uint64_t plan_evictions = 0;
};

/// A fixed mixed workload that evicts in all three tiers: even keys are
/// chunked frames (plain → compressed → spill), odd keys flat 4 KiB blobs
/// (plain → spill). Each step pins a key before it unpins the previous
/// one, so the plain tier also skips a pinned entry.
TierTrace run_tier_trace(const EvictionPolicy* policy) {
  constexpr int kKeys = 8;
  std::vector<ChunkedObject> frames;
  for (int i = 0; i < kKeys; ++i) {
    frames.push_back(make_chunked(static_cast<std::uint8_t>(i + 1)));
  }
  TieredCache::Options opt;
  opt.plain_bytes = 24000;
  opt.compressed_bytes = 2 * frames[0].compressed.size() +
                         frames[0].compressed.size() / 2;
  opt.spill_bytes = 3 * (4096 + 22);
  TieredCache tc(opt);
  tc.set_eviction_policy(policy);
  TierTrace trace;
  std::string held;
  for (int step = 0; step < 48; ++step) {
    const int i = (step * 5 + step / 8) % kKeys;
    const std::string path = "k" + std::to_string(i);
    acquire_hot(tc, path,
                i % 2 == 0 ? cold_of(frames[static_cast<std::size_t>(i)])
                           : flat_of(static_cast<std::uint8_t>(i), 4096));
    if (!held.empty()) tc.release(held);
    held = path;
    std::string row;
    for (int k = 0; k < kKeys; ++k) {
      const std::string key = "k" + std::to_string(k);
      row += tc.contains(key)              ? 'P'
             : tc.compressed_contains(key) ? 'C'
             : tc.spill_contains(key)      ? 'S'
                                           : '-';
    }
    trace.residency.push_back(row);
  }
  tc.release(held);
  auto& m = tc.metrics();
  trace.plain_evictions = m.counter("cache.evictions").value();
  trace.compressed_evictions = m.counter("tier.compressed.evictions").value();
  trace.spill_evictions = m.counter("tier.spill.evictions").value();
  trace.plan_evictions = m.counter("plan.evictions").value();
  tc.set_eviction_policy(nullptr);
  return trace;
}

TEST(TieredCacheTest, AllNeverPlanMatchesFifoOnEveryTier) {
  const NeverPolicy never;
  const TierTrace fifo = run_tier_trace(nullptr);
  const TierTrace planned = run_tier_trace(&never);
  EXPECT_GT(fifo.plain_evictions, 0u);
  EXPECT_GT(fifo.compressed_evictions, 0u);
  EXPECT_GT(fifo.spill_evictions, 0u);
  EXPECT_EQ(fifo.plan_evictions, 0u);
  EXPECT_EQ(planned.plan_evictions, planned.plain_evictions);
  EXPECT_EQ(planned.residency, fifo.residency);
  EXPECT_EQ(planned.plain_evictions, fifo.plain_evictions);
  EXPECT_EQ(planned.compressed_evictions, fifo.compressed_evictions);
  EXPECT_EQ(planned.spill_evictions, fifo.spill_evictions);
}

TEST(TieredCacheTest, NoTierBudgetsIsPassThrough) {
  TieredCache::Options opt;
  opt.plain_bytes = 250;
  TieredCache tc(opt);
  EXPECT_FALSE(tc.tiers_enabled());
  int cold_calls = 0;
  auto f = tc.acquire_file("a", [&] {
    ++cold_calls;
    ColdResult r;
    r.file = std::make_shared<CachedFile>(blob(100, 1));
    return r;
  });
  EXPECT_EQ(f->plain(), blob(100, 1));
  tc.release("a");
  EXPECT_EQ(cold_calls, 1);
  // No tier metric was registered — the registry is untouched beyond the
  // classic "cache.*" family.
  const auto snap = tc.metrics().snapshot();
  for (const auto& s : snap.entries) {
    EXPECT_TRUE(s.name.rfind("tier.", 0) != 0) << s.name;
  }
}

}  // namespace
}  // namespace fanstore::core
