#include "core/cache.hpp"

#include <thread>

namespace fanstore::core {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::size_t pick_shards(std::size_t capacity_bytes, std::size_t requested) {
  if (requested != 0) return round_up_pow2(requested);
  // Auto policy: enough stripes to spread I/O threads, but never so many
  // that a shard's budget drops below 1 MiB — a 250-byte unit-test cache
  // must behave exactly like the classic single-pool FIFO.
  const std::size_t by_budget = capacity_bytes >> 20;  // capacity / 1 MiB
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::size_t shards = round_up_pow2(hw * 2);
  shards = std::min(shards, std::size_t{32});
  while (shards > 1 && shards > by_budget) shards >>= 1;
  return shards;
}

}  // namespace

PlainCache::PlainCache(std::size_t capacity_bytes, std::size_t shards,
                       obs::MetricsRegistry* metrics)
    : capacity_(capacity_bytes) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  hits_ = &metrics->counter("cache.hits");
  misses_ = &metrics->counter("cache.misses");
  evictions_ = &metrics->counter("cache.evictions");
  waits_ = &metrics->counter("cache.single_flight_waits");
  plan_evictions_ = &metrics->counter("plan.evictions");
  bytes_gauge_ = &metrics->gauge("cache.bytes_used");
  const std::size_t n = pick_shards(capacity_bytes, shards);
  shard_mask_ = n - 1;
  shards_.reserve(n);
  const std::size_t base = capacity_bytes / n;
  const std::size_t extra = capacity_bytes % n;
  for (std::size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    s->budget = base + (i < extra ? 1 : 0);
    shards_.push_back(std::move(s));
  }
}

PlainCache::Shard& PlainCache::shard_for(const std::string& path) const {
  return *shards_[std::hash<std::string>{}(path) & shard_mask_];
}

std::size_t PlainCache::shard_of(const std::string& path) const {
  return std::hash<std::string>{}(path) & shard_mask_;
}

std::shared_ptr<CachedFile> PlainCache::insert_pinned_locked(
    Shard& s, const std::string& path, std::shared_ptr<CachedFile> data,
    std::vector<Demoted>* demoted) {
  Entry e;
  e.data = std::move(data);
  e.charged = e.data->charge_bytes();
  e.open_count = 1;
  s.fifo.push_back(path);
  e.fifo_pos = std::prev(s.fifo.end());
  e.in_fifo = true;
  s.bytes_used += e.charged;
  bytes_gauge_->add(static_cast<std::int64_t>(e.charged));
  auto result = e.data;
  s.entries.emplace(path, std::move(e));
  evict_if_needed_locked(s, demoted);
  return result;
}

void PlainCache::fire_demotions(std::vector<Demoted>& demoted) {
  for (auto& v : demoted) demote_(v.path, v.data);
  demoted.clear();
}

std::shared_ptr<CachedFile> PlainCache::acquire_file(
    const std::string& path,
    const std::function<std::shared_ptr<CachedFile>()>& loader, bool* loaded) {
  Shard& s = shard_for(path);
  std::shared_ptr<InFlight> flight;
  std::vector<Demoted> demoted;
  std::shared_ptr<CachedFile> result;
  bool load_here = false;
  {
    sync::MutexLock lk(s.mu);
    while (result == nullptr && !load_here) {
      const auto it = s.entries.find(path);
      if (it != s.entries.end()) {
        it->second.open_count++;
        hits_->inc();
        if (loaded != nullptr) *loaded = false;
        result = it->second.data;
        break;
      }
      const auto fit = s.inflight.find(path);
      if (fit == s.inflight.end()) {  // we become the loader
        load_here = true;
        flight = std::make_shared<InFlight>();
        s.inflight.emplace(path, flight);
        break;
      }
      // Another thread is already loading this path: wait for it instead
      // of duplicating the fetch+decompress (single-flight).
      flight = fit->second;
      waits_->inc();
      s.load_done.wait(s.mu, [&] { return flight->done; });
      if (flight->error != nullptr) std::rethrow_exception(flight->error);
      hits_->inc();
      if (loaded != nullptr) *loaded = false;
      const auto again = s.entries.find(path);
      if (again != s.entries.end()) {
        again->second.open_count++;
        result = again->second.data;
        break;
      }
      // Narrow window: the loader's entry was already evicted (the loader's
      // caller released its pin before we woke). Re-admit the bytes we were
      // handed so pin/release stays balanced for this caller.
      result = insert_pinned_locked(s, path, flight->data, &demoted);
      break;
    }
  }
  if (!load_here) {
    fire_demotions(demoted);
    return result;
  }
  // Miss: run the (potentially slow) loader without holding any lock.
  std::shared_ptr<CachedFile> data;
  try {
    data = loader();
  } catch (...) {
    sync::MutexLock lk(s.mu);
    flight->error = std::current_exception();
    flight->done = true;
    s.inflight.erase(path);
    s.load_done.notify_all();
    throw;
  }
  if (loaded != nullptr) *loaded = true;
  {
    sync::MutexLock lk(s.mu);
    misses_->inc();
    flight->data = data;
    flight->done = true;
    s.inflight.erase(path);
    s.load_done.notify_all();
    result = insert_pinned_locked(s, path, std::move(data), &demoted);
  }
  fire_demotions(demoted);
  return result;
}

std::shared_ptr<CachedFile> PlainCache::try_acquire(const std::string& path) {
  Shard& s = shard_for(path);
  sync::MutexLock lk(s.mu);
  const auto it = s.entries.find(path);
  if (it == s.entries.end()) return nullptr;
  Entry& e = it->second;
  if (e.invalidated || !e.data->verified() || !e.data->fully_materialized()) {
    return nullptr;
  }
  e.open_count++;
  hits_->inc();
  return e.data;
}

void PlainCache::recharge(const std::string& path) {
  Shard& s = shard_for(path);
  std::vector<Demoted> demoted;
  {
    sync::MutexLock lk(s.mu);
    const auto it = s.entries.find(path);
    if (it == s.entries.end()) return;
    const std::size_t now = it->second.data->charge_bytes();
    const std::size_t before = it->second.charged;
    if (now == before) return;
    it->second.charged = now;
    s.bytes_used += now - before;  // size_t wrap-around is fine for shrink
    bytes_gauge_->add(static_cast<std::int64_t>(now) -
                      static_cast<std::int64_t>(before));
    evict_if_needed_locked(s, &demoted);
  }
  fire_demotions(demoted);
}

void PlainCache::invalidate(const std::string& path) {
  Shard& s = shard_for(path);
  sync::MutexLock lk(s.mu);
  const auto it = s.entries.find(path);
  if (it == s.entries.end()) return;
  if (it->second.open_count > 0) {
    it->second.invalidated = true;  // erased at its last unpin
  } else {
    erase_locked(s, it);
  }
}

void PlainCache::release(const std::string& path) {
  Shard& s = shard_for(path);
  std::vector<Demoted> demoted;
  {
    sync::MutexLock lk(s.mu);
    const auto it = s.entries.find(path);
    if (it == s.entries.end()) return;
    Entry& e = it->second;
    if (e.open_count > 0) e.open_count--;
    if (e.open_count == 0 && e.invalidated) {
      erase_locked(s, it);
    } else {
      // Other readers still hold pins, or the entry stays cached: capacity
      // pressure decides.
      evict_if_needed_locked(s, &demoted);
    }
  }
  fire_demotions(demoted);
}

void PlainCache::erase_locked(
    Shard& s, std::unordered_map<std::string, Entry>::iterator it) {
  s.bytes_used -= it->second.charged;
  bytes_gauge_->add(-static_cast<std::int64_t>(it->second.charged));
  if (it->second.in_fifo) s.fifo.erase(it->second.fifo_pos);
  s.entries.erase(it);
}

std::list<std::string>::iterator PlainCache::pick_policy_victim_locked(
    Shard& s, const EvictionPolicy& policy) {
  auto victim = s.fifo.end();
  std::uint64_t worst = 0;
  for (auto pos = s.fifo.begin(); pos != s.fifo.end();) {
    const auto it = s.entries.find(*pos);
    if (it == s.entries.end()) {  // stale FIFO node from a prior erase
      pos = s.fifo.erase(pos);
      continue;
    }
    if (it->second.open_count > 0) {
      ++pos;  // in use by some I/O thread: skip
      continue;
    }
    const std::uint64_t d = policy.next_use_distance(*pos);
    // Strict > keeps the earliest FIFO position among equal distances, so
    // a plan that knows nothing (all kNever) degenerates to exact FIFO.
    if (victim == s.fifo.end() || d > worst) {
      worst = d;
      victim = pos;
    }
    if (d == EvictionPolicy::kNever) break;  // nothing can be farther
    ++pos;
  }
  return victim;
}

void PlainCache::evict_if_needed_locked(Shard& s,
                                        std::vector<Demoted>* demoted) {
  const EvictionPolicy* policy = policy_.load(std::memory_order_acquire);
  if (policy != nullptr) {
    // Belady / exact-future-reuse (DESIGN.md §10): repeatedly evict the
    // unpinned entry whose next planned use is farthest away.
    while (s.bytes_used > s.budget) {
      const auto victim = pick_policy_victim_locked(s, *policy);
      if (victim == s.fifo.end()) return;  // everything pinned
      const auto it = s.entries.find(*victim);
      s.bytes_used -= it->second.charged;
      bytes_gauge_->add(-static_cast<std::int64_t>(it->second.charged));
      evictions_->inc();
      plan_evictions_->inc();
      if (demote_) demoted->push_back({*victim, std::move(it->second.data)});
      s.fifo.erase(victim);
      s.entries.erase(it);
    }
    return;
  }
  // FIFO scan, skipping pinned entries (the paper's "variant of FIFO").
  auto pos = s.fifo.begin();
  while (s.bytes_used > s.budget && pos != s.fifo.end()) {
    const auto it = s.entries.find(*pos);
    if (it == s.entries.end()) {
      pos = s.fifo.erase(pos);
      continue;
    }
    if (it->second.open_count > 0) {
      ++pos;  // in use by some I/O thread: skip
      continue;
    }
    s.bytes_used -= it->second.charged;
    bytes_gauge_->add(-static_cast<std::int64_t>(it->second.charged));
    evictions_->inc();
    if (demote_) demoted->push_back({*pos, std::move(it->second.data)});
    pos = s.fifo.erase(pos);
    s.entries.erase(it);
  }
}

bool PlainCache::contains(const std::string& path) const {
  Shard& s = shard_for(path);
  sync::MutexLock lk(s.mu);
  return s.entries.count(path) > 0;
}

int PlainCache::open_count(const std::string& path) const {
  Shard& s = shard_for(path);
  sync::MutexLock lk(s.mu);
  const auto it = s.entries.find(path);
  return it == s.entries.end() ? 0 : it->second.open_count;
}

std::size_t PlainCache::bytes_used() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    sync::MutexLock lk(s->mu);  // one shard at a time: never two held
    total += s->bytes_used;
  }
  return total;
}

}  // namespace fanstore::core
