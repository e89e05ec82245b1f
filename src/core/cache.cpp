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
  const auto [it, admitted] = s.entries.try_emplace(path);
  Entry& e = it->second;
  e.open_count++;
  if (!admitted) return e.data;  // another admission of `path` won the race
  e.data = std::move(data);
  e.charged = e.data->charge_bytes();
  s.fifo.push_back(path);
  e.fifo_pos = std::prev(s.fifo.end());
  s.bytes_used += e.charged;
  bytes_gauge_->add(static_cast<std::int64_t>(e.charged));
  auto result = e.data;
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
    const auto it = s.entries.find(path);
    if (it != s.entries.end()) {
      it->second.open_count++;
      hits_->inc();
      if (loaded != nullptr) *loaded = false;
      result = it->second.data;
    } else if (const auto fit = s.inflight.find(path);
               fit == s.inflight.end()) {  // we become the loader
      load_here = true;
      flight = std::make_shared<InFlight>();
      s.inflight.emplace(path, flight);
    } else {
      // Another thread is already loading this path: wait for it instead
      // of duplicating the fetch+decompress (single-flight).
      flight = fit->second;
      waits_->inc();
      s.load_done.wait(s.mu, [&] { return flight->done; });
      if (flight->error != nullptr) std::rethrow_exception(flight->error);
      hits_->inc();
      if (loaded != nullptr) *loaded = false;
      // The loader's entry is usually resident and gets pinned; if it was
      // already evicted (the loader's caller released its pin before we
      // woke), the bytes we were handed are admitted again.
      result = insert_pinned_locked(s, path, flight->data, &demoted);
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
  s.fifo.erase(it->second.fifo_pos);
  s.entries.erase(it);
}

void PlainCache::evict_if_needed_locked(Shard& s,
                                        std::vector<Demoted>* demoted) {
  // Entries in use by some I/O thread are skipped (the paper's "variant of
  // FIFO"); under a plan the victim is the farthest next use (§10).
  const EvictionPolicy* policy = eviction_policy();
  const auto unpinned = [&s](const std::string& p) NO_THREAD_SAFETY_ANALYSIS {
    return s.entries.find(p)->second.open_count == 0;  // s.mu is held
  };
  while (s.bytes_used > s.budget) {
    const auto victim = pick_victim(s.fifo, policy, unpinned);
    if (victim == s.fifo.end()) return;  // everything pinned
    const auto it = s.entries.find(*victim);
    evictions_->inc();
    if (policy != nullptr) plan_evictions_->inc();
    if (demote_) demoted->push_back({*victim, std::move(it->second.data)});
    erase_locked(s, it);
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
