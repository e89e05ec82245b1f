#include "dlsim/prefetcher.hpp"

#include "obs/trace.hpp"

namespace fanstore::dlsim {

Prefetcher::Prefetcher(core::FanStoreFs& fs, std::size_t threads,
                       std::size_t fetch_threads)
    : fs_(fs),
      pool_(threads),
      fetch_pool_(fetch_threads == 0 ? 1 : fetch_threads),
      warmed_(fs.metrics().counter("prefetch.warmed")),
      failures_(fs.metrics().counter("prefetch.failures")),
      fetch_staged_(fs.metrics().counter("prefetch.fetch_staged")),
      queue_depth_(fs.metrics().gauge("prefetch.queue_depth")) {}

void Prefetcher::warm(const std::string& path) {
  obs::TraceSpan span("prefetch.warm");
  // warm_file() also materializes every chunk of a lazily-decoded chunked
  // entry — warming must leave nothing for the training thread, even when
  // the fs opens chunked files lazily.
  if (fs_.warm_file(path)) {
    warmed_.inc();
  } else {
    failures_.inc();
  }
}

void Prefetcher::prefetch(const std::vector<std::string>& paths) {
  for (const auto& path : paths) {
    queue_depth_.add(1);
    // Stage 1 (fetch pool): land the compressed bytes locally. Stage 2
    // (decompress pool) starts per file the moment its fetch finishes, so
    // later fetches overlap earlier decompressions.
    fetch_pool_.submit([this, path] {
      queue_depth_.add(-1);
      {
        obs::TraceSpan span("prefetch.fetch");
        if (fs_.prefetch_compressed(path)) fetch_staged_.inc();
      }
      pool_.submit([this, path] { warm(path); });
    });
  }
}

void Prefetcher::wait() {
  // Fetch stage first: once it idles, every decompress task is enqueued.
  fetch_pool_.wait_idle();
  pool_.wait_idle();
}

}  // namespace fanstore::dlsim
