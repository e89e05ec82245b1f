// Ablation (DESIGN.md §5): the cache policy. The paper argues every file
// is equally likely to be accessed each iteration, so FIFO matches LRU at
// lower cost, but eviction must skip entries open in other I/O threads.
// This bench compares refcount-FIFO (FanStore), plain FIFO (no pinning),
// and LRU on a uniform-random DL access trace.
#include <list>
#include <unordered_map>

#include "bench/bench_util.hpp"
#include "core/cache.hpp"
#include "util/rng.hpp"

using namespace fanstore;

namespace {

constexpr std::size_t kFileBytes = 64 * 1024;
constexpr std::size_t kFiles = 400;
constexpr std::size_t kAccesses = 20000;

// Simple LRU over file ids, same capacity accounting.
struct LruSim {
  std::size_t capacity;
  std::list<std::size_t> order;  // most recent at front
  std::unordered_map<std::size_t, std::list<std::size_t>::iterator> pos;
  std::size_t hits = 0, misses = 0;

  void access(std::size_t id) {
    const auto it = pos.find(id);
    if (it != pos.end()) {
      ++hits;
      order.erase(it->second);
    } else {
      ++misses;
      while (pos.size() * kFileBytes >= capacity && !order.empty()) {
        pos.erase(order.back());
        order.pop_back();
      }
    }
    order.push_front(id);
    pos[id] = order.begin();
  }
};

// Plain FIFO without refcounts: counts how often it would evict an entry
// that is still held open by a concurrent reader (a correctness hazard the
// paper's variant avoids).
struct FifoSim {
  std::size_t capacity;
  std::list<std::size_t> order;  // oldest at front
  std::unordered_map<std::size_t, bool> present;
  std::size_t hits = 0, misses = 0, unsafe_evictions = 0;

  void access(std::size_t id, const std::unordered_map<std::size_t, int>& open_now) {
    if (present.count(id) > 0) {
      ++hits;
      return;
    }
    ++misses;
    while (present.size() * kFileBytes >= capacity && !order.empty()) {
      const std::size_t victim = order.front();
      order.pop_front();
      present.erase(victim);
      const auto it = open_now.find(victim);
      if (it != open_now.end() && it->second > 0) ++unsafe_evictions;
    }
    order.push_back(id);
    present[id] = true;
  }
};

}  // namespace

int main() {
  bench::section("Ablation: cache policy under a uniform DL access trace");
  bench::Table table({"capacity", "refcount-FIFO hit%", "plain FIFO hit%",
                      "LRU hit%", "plain-FIFO unsafe evictions"});
  for (const double frac : {0.1, 0.25, 0.5, 0.9}) {
    const auto capacity = static_cast<std::size_t>(frac * kFiles * kFileBytes);
    core::PlainCache fanstore_cache(capacity);
    LruSim lru{capacity, {}, {}};
    FifoSim fifo{capacity, {}, {}};
    Rng rng(42);
    // Model 4 concurrent I/O threads: a sliding window of open files.
    std::unordered_map<std::size_t, int> open_now;
    std::vector<std::size_t> window;
    for (std::size_t a = 0; a < kAccesses; ++a) {
      const std::size_t id = rng.next_below(kFiles);
      const std::string path = "f" + std::to_string(id);
      fanstore_cache.acquire_file(path, [&] {
        return std::make_shared<core::CachedFile>(Bytes(kFileBytes, 1));
      });
      open_now[id]++;
      window.push_back(id);
      lru.access(id);
      fifo.access(id, open_now);
      if (window.size() > 4) {  // oldest of the 4 "threads" closes its file
        const std::size_t done = window.front();
        window.erase(window.begin());
        open_now[done]--;
        fanstore_cache.release("f" + std::to_string(done));
      }
    }
    auto& m = fanstore_cache.metrics();
    const auto hits = m.counter("cache.hits").value();
    const auto misses = m.counter("cache.misses").value();
    table.row({bench::fmt("%.0f%% of data", frac * 100),
               bench::fmt("%.1f", 100.0 * hits / (hits + misses)),
               bench::fmt("%.1f", 100.0 * fifo.hits / (fifo.hits + fifo.misses)),
               bench::fmt("%.1f", 100.0 * lru.hits / (lru.hits + lru.misses)),
               std::to_string(fifo.unsafe_evictions)});
  }
  table.print();
  std::printf(
      "\nClaim: under uniform access (the DL pattern) FIFO ~= LRU in hit rate,\n"
      "so the cheaper policy wins — but only the refcount variant never\n"
      "invalidates data another I/O thread is actively reading.\n");
  return 0;
}
