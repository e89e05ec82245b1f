// Observability: metrics registry (counters, gauges, log-scale latency
// histograms) — the one read path for the fs/cache/daemon counters and
// the per-stage timing the paper's evaluation decomposes (open /
// decompress / fetch latency, cache behaviour, interconnect cost).
//
// Hot-path contract: recording is lock-free. A `Counter`, `Gauge`, or
// `Histogram` reference obtained from a `MetricsRegistry` is stable for the
// registry's lifetime; `inc()`/`set()`/`record()` are relaxed atomic
// operations with no lock, allocation, or branch beyond the bucket math.
// Registration (name lookup) takes the registry mutex and is meant for
// construction time, not per-operation.
//
// Snapshots (`MetricsRegistry::snapshot()`) walk the registry under its
// mutex and copy every metric's current value; counter values are
// torn-but-monotonic relative to concurrent writers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.hpp"

namespace fanstore::obs {

/// Monotonic relaxed-atomic counter. Padded to a cache line so distinct
/// counters never false-share.
class alignas(64) Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins signed gauge (occupancy, queue depth).
class alignas(64) Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Plain copy of a histogram's state; quantile queries run on the copy so
/// they are self-consistent even while writers keep recording.
struct HistogramSnapshot {
  std::vector<std::uint64_t> counts;  // per-bucket occupancy
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  struct Bounds {
    std::uint64_t lo = 0;  // inclusive
    std::uint64_t hi = 0;  // inclusive
  };

  /// Bucket bounds of the p-th percentile (p in [0,100]): the bucket
  /// holding the sample of rank ceil(p/100 * count). The exact sorted-
  /// sample quantile is guaranteed to lie within the returned bounds.
  Bounds quantile_bounds(double p) const;

  /// Point estimate: midpoint of quantile_bounds(p). 0 when empty.
  double quantile(double p) const;
  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Fixed-bucket log-scale histogram over non-negative integer samples
/// (latencies in microseconds, sizes in bytes). Buckets are base-2
/// octaves with 4 linear sub-buckets each, so the relative bucket width —
/// and therefore the worst-case quantile error — is <= 25%. Values 0..3
/// get exact singleton buckets. record() is two relaxed fetch_adds plus
/// the bucket math; no lock.
class Histogram {
 public:
  static constexpr int kSubBits = 2;
  static constexpr int kSub = 1 << kSubBits;          // sub-buckets per octave
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

  void record(std::uint64_t v) {
    counts_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Bucket index for a sample value.
  static int bucket_of(std::uint64_t v);
  /// Inclusive value range covered by bucket `i`.
  static HistogramSnapshot::Bounds bucket_bounds(int i);

  HistogramSnapshot snapshot() const;
  /// Convenience: quantile over a fresh snapshot.
  double quantile(double p) const { return snapshot().quantile(p); }

 private:
  std::atomic<std::uint64_t> counts_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Point-in-time copy of every metric in a registry, sorted by name.
struct MetricsSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    std::uint64_t counter = 0;   // kCounter
    std::int64_t gauge = 0;      // kGauge
    HistogramSnapshot hist;      // kHistogram
  };
  std::vector<Entry> entries;

  const Entry* find(const std::string& name) const;
  /// Counter value by name; 0 when absent (delta math stays simple).
  std::uint64_t counter(const std::string& name) const;
  std::int64_t gauge(const std::string& name) const;

  /// "name value" lines; histograms expand to count/mean/p50/p95/p99.
  std::string to_text() const;
  /// One JSON object keyed by metric name.
  std::string to_json() const;
};

/// Named-metric registry. get-or-create accessors return stable references;
/// re-registering a name with a different metric type throws.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name) EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) EXCLUDES(mu_);
  Histogram& histogram(const std::string& name) EXCLUDES(mu_);

  MetricsSnapshot snapshot() const EXCLUDES(mu_);

  /// Process-wide default registry (used where no per-rank registry is
  /// plumbed: mpi world counters, generic prefetchers).
  static MetricsRegistry& global();

 private:
  struct Slot {
    MetricsSnapshot::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Slot& slot(const std::string& name, MetricsSnapshot::Kind kind) REQUIRES(mu_);

  mutable sync::Mutex mu_{"obs.metrics_registry.mu"};
  std::map<std::string, Slot> slots_ GUARDED_BY(mu_);
};

/// The canonical metric-name inventory (src/obs/metric_names.inc), sorted.
/// Registration sites are held to this list by fanstore-lint's
/// metric-inventory rule; tests use it to assert the inventory and the
/// registry agree.
const std::vector<std::pair<std::string, MetricsSnapshot::Kind>>&
canonical_metric_names();

/// Text (json=false) or JSON (json=true) dump of a registry snapshot.
std::string metrics_dump(const MetricsRegistry& registry, bool json = false);

}  // namespace fanstore::obs

/// C-style export path: snapshot of the process-global registry.
std::string fanstore_metrics_dump(bool json = false);
