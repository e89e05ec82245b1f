// Asynchronous batch prefetcher — the real mechanism behind Figure 5(b).
//
// DL frameworks overlap the next batch's I/O with the current iteration's
// compute; with FanStore that means warming the decompressed cache so that
// the training thread's open() calls are hits. The prefetcher runs a small
// thread pool issuing open()+close() for upcoming files (the open performs
// fetch + decompress + cache insert; close leaves the entry cached).
//
// When constructed against a FanStoreFs the warm-up is *pipelined*: a
// dedicated fetch stage pulls compressed blobs off the network
// (FanStoreFs::prefetch_compressed) and hands each file to the decompress
// stage as soon as its bytes land, so the network fetches of batch i+1
// overlap the decompression of batch i instead of serializing inside one
// fused open() per file.
//
// The queue can be bounded (set_queue_limit): once `high_water` paths are
// queued but not yet started, prefetch() either blocks for a free slot
// (kBlock — backpressure onto the producer) or cancels the oldest
// not-yet-started entry (kDropOldest — freshest schedule wins, counted in
// "prefetch.dropped"). The backlog is the "prefetch.queue_depth" gauge.
//
// Prefetcher implements plan::Warmer, so the clairvoyant
// PrefetchController (DESIGN.md §10) can drive it directly.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/fanstore_fs.hpp"
#include "obs/metrics.hpp"
#include "plan/controller.hpp"
#include "posixfs/vfs.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace fanstore::dlsim {

class Prefetcher final : public plan::Warmer {
 public:
  enum class OverflowPolicy { kBlock, kDropOldest };

  /// Generic warm-up via fused open()+close(). `fs` must outlive the
  /// prefetcher.
  Prefetcher(posixfs::Vfs& fs, std::size_t threads);

  /// Pipelined warm-up: `fetch_threads` stage network fetches while
  /// `threads` decompress. `fs` must outlive the prefetcher.
  Prefetcher(core::FanStoreFs& fs, std::size_t threads,
             std::size_t fetch_threads = 2);

  /// Bounds the queued-but-not-started backlog to `high_water` paths
  /// (0 restores the historic unbounded behavior). Takes effect for
  /// subsequent prefetch() calls.
  void set_queue_limit(std::size_t high_water,
                       OverflowPolicy policy = OverflowPolicy::kBlock);

  /// Queues the batch for background warming. With an unbounded queue this
  /// returns immediately; under kBlock it may wait for backlog slots.
  /// Every warmed entry ends up cached but *unpinned* (each open is paired
  /// with a close), so prefetching never defeats eviction.
  void prefetch(const std::vector<std::string>& paths);

  /// Blocks until every queued path has been processed (or dropped).
  void wait();

  // --- plan::Warmer ---
  void enqueue(const std::vector<std::string>& paths) override {
    prefetch(paths);
  }
  void drain() override { wait(); }

 private:
  /// One queued path. Flags are guarded by q_mu_; a worker claims the job
  /// (started=true) before touching the fs, a producer under pressure may
  /// cancel it first (kDropOldest) — exactly one of the two wins.
  struct Job {
    explicit Job(std::string p) : path(std::move(p)) {}
    std::string path;
    bool started = false;
    bool cancelled = false;
  };

  void warm(const std::string& path);
  void bind_metrics(obs::MetricsRegistry& m);
  /// Reserves a backlog slot for one path, applying the overflow policy.
  std::shared_ptr<Job> push_job(const std::string& path) EXCLUDES(q_mu_);
  /// Worker-side transition queued -> started; false if the job was
  /// cancelled by drop-oldest pressure.
  bool claim(Job& job) EXCLUDES(q_mu_);

  posixfs::Vfs& fs_;
  core::FanStoreFs* fanstore_ = nullptr;  // non-null: pipelined mode
  ThreadPool pool_;                        // decompress / cache-insert stage
  std::unique_ptr<ThreadPool> fetch_pool_;  // network fetch stage

  mutable sync::Mutex q_mu_{"prefetcher.q_mu"};
  sync::AnnotatedCondVar q_slot_;  // signalled when the backlog shrinks
  /// Jobs not yet claimed by a worker, oldest first (drop-oldest scans from
  /// the front). Claimed/cancelled jobs are lazily trimmed.
  std::deque<std::shared_ptr<Job>> backlog_ GUARDED_BY(q_mu_);
  std::size_t queued_ GUARDED_BY(q_mu_) = 0;  // live (unclaimed) backlog size
  std::size_t high_water_ GUARDED_BY(q_mu_) = 0;  // 0 = unbounded
  OverflowPolicy overflow_ GUARDED_BY(q_mu_) = OverflowPolicy::kBlock;

  obs::Counter* warmed_ = nullptr;          // "prefetch.warmed"
  obs::Counter* failures_ = nullptr;        // "prefetch.failures"
  obs::Counter* fetch_staged_ = nullptr;    // "prefetch.fetch_staged"
  obs::Counter* dropped_ = nullptr;         // "prefetch.dropped"
  obs::Gauge* queue_depth_ = nullptr;       // "prefetch.queue_depth"
};

}  // namespace fanstore::dlsim
