// Asynchronous batch prefetcher — the real mechanism behind Figure 5(b).
//
// DL frameworks overlap the next batch's I/O with the current iteration's
// compute; with FanStore that means warming the decompressed cache so that
// the training thread's open() calls are hits. The warm-up is *pipelined*:
// a fetch stage pulls compressed blobs off the network
// (FanStoreFs::prefetch_compressed) and hands each file to the decompress
// stage as soon as its bytes land, so the network fetches of batch i+1
// overlap the decompression of batch i instead of serializing inside one
// fused open() per file. The decompress stage warms each file with
// FanStoreFs::warm_file (open + decode + close), leaving it cached but
// unpinned.
//
// Paths queued but not yet picked up by the fetch stage are the
// "prefetch.queue_depth" gauge.
//
// Prefetcher implements plan::Warmer, so the clairvoyant
// PrefetchController (DESIGN.md §10) can drive it directly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/fanstore_fs.hpp"
#include "obs/metrics.hpp"
#include "plan/controller.hpp"
#include "util/thread_pool.hpp"

namespace fanstore::dlsim {

class Prefetcher final : public plan::Warmer {
 public:
  /// `fetch_threads` stage network fetches while `threads` decompress.
  /// Metrics go to `fs.metrics()`. `fs` must outlive the prefetcher.
  Prefetcher(core::FanStoreFs& fs, std::size_t threads,
             std::size_t fetch_threads = 2);

  /// Queues the batch for background warming and returns immediately.
  /// Every warmed entry ends up cached but *unpinned* (each open is paired
  /// with a close), so prefetching never defeats eviction.
  void prefetch(const std::vector<std::string>& paths);

  /// Blocks until every queued path has been processed.
  void wait();

  // --- plan::Warmer ---
  void enqueue(const std::vector<std::string>& paths) override {
    prefetch(paths);
  }
  void drain() override { wait(); }

 private:
  void warm(const std::string& path);

  core::FanStoreFs& fs_;
  ThreadPool pool_;        // decompress / cache-insert stage
  ThreadPool fetch_pool_;  // network fetch stage

  obs::Counter& warmed_;        // "prefetch.warmed"
  obs::Counter& failures_;      // "prefetch.failures"
  obs::Counter& fetch_staged_;  // "prefetch.fetch_staged"
  obs::Gauge& queue_depth_;     // "prefetch.queue_depth"
};

}  // namespace fanstore::dlsim
