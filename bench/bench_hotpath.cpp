// Hot-path concurrency benchmark: multi-threaded open/read throughput of
// the sharded single-flight PlainCache and the low-contention FanStoreFs
// read path, swept over 1–16 I/O threads on hit-heavy and miss-heavy
// mixes.
//
// The hit-heavy "shared epoch" mix is the DL shape that motivated the
// sharded cache: several I/O workers race through one shuffled epoch
// order, so every newly reached file is opened by all workers nearly
// simultaneously (most opens are hits). Single-flight runs the
// fetch+decompress loader once and the waiters adopt the result.
//
// Emits BENCH_hotpath.json (threads-vs-throughput) — the repo's recorded
// perf trajectory. tools/ci.sh runs `--quick` as a smoke test.
//
// Doubles as a metrics cross-check: the sharded cache's registry counters
// are compared phase-by-phase against the bench's own bookkeeping (loader
// invocations, issued ops) and the process exits non-zero on any mismatch,
// so a silently dropped or double-counted metric fails CI.
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "compress/registry.hpp"
#include "obs/metrics.hpp"
#include "core/cache.hpp"
#include "core/instance.hpp"
#include "mpi/comm.hpp"
#include "posixfs/vfs.hpp"
#include "util/timer.hpp"

using namespace fanstore;

namespace {

constexpr std::size_t kFileBytes = std::size_t{1} << 20;  // ~DL sample size; decompress >> a scheduler timeslice

// --- Workload -----------------------------------------------------------

// Realistic-entropy sample (~1.4x zstd ratio, like real DL datasets —
// paper Table 4): small alphabet plus short-range repeats.
Bytes sample_file(std::size_t index) {
  Bytes b(kFileBytes);
  std::uint64_t x = 88172645463325252ull + index * 2654435761ull;
  for (std::size_t i = 0; i < b.size(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b[i] = static_cast<std::uint8_t>('a' + (x % 26));
    if (x % 7 == 0 && i > 16) b[i] = b[i - 16];
  }
  return b;
}

struct Dataset {
  std::vector<std::string> paths;
  std::vector<Bytes> compressed;  // zstd blobs; the loader decompresses
  const compress::Compressor* codec = nullptr;
};

Dataset make_dataset(std::size_t files) {
  Dataset ds;
  ds.codec = compress::Registry::instance().by_name("zstd");
  for (std::size_t i = 0; i < files; ++i) {
    ds.paths.push_back("ds/f" + std::to_string(i));
    ds.compressed.push_back(ds.codec->compress(as_view(sample_file(i))));
  }
  return ds;
}

// One "open/read": acquire (decompressing on miss, counted in `loads`),
// copy the plain bytes out (the read), release.
void open_read_close(core::PlainCache& cache, const Dataset& ds,
                     std::size_t file, Bytes& read_buf,
                     std::atomic<std::uint64_t>& loads) {
  const std::string& path = ds.paths[file];
  auto data = cache.acquire_file(path, [&] {
    loads.fetch_add(1, std::memory_order_relaxed);
    return std::make_shared<core::CachedFile>(
        ds.codec->decompress(as_view(ds.compressed[file]), kFileBytes));
  });
  read_buf.resize(data->size());
  std::memcpy(read_buf.data(), data->plain().data(), data->size());
  cache.release(path);
}

/// Runs `fn(thread_index)` on `threads` threads; returns elapsed seconds.
double timed_threads(int threads, const std::function<void(int)>& fn) {
  WallTimer timer;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(fn, t);
  for (auto& th : pool) th.join();
  return timer.elapsed_sec();
}

// Shared-epoch hit-heavy mix: all threads walk the same file sequence at
// their own pace. Each newly reached file is one coalesced load; revisits
// by trailing threads are hits.
double run_shared_epoch(core::PlainCache& cache, const Dataset& ds,
                        int threads, std::size_t seq_len,
                        std::atomic<std::uint64_t>& loads) {
  return timed_threads(threads, [&](int) {
    Bytes buf;
    for (std::size_t i = 0; i < seq_len; ++i) {
      open_read_close(cache, ds, i % ds.paths.size(), buf, loads);
    }
  });
}

// Miss-heavy mix: thread-private strides over a file set 4x the cache
// capacity — nearly every open evicts and reloads, no load sharing.
double run_miss_heavy(core::PlainCache& cache, const Dataset& ds, int threads,
                      std::size_t ops_per_thread) {
  std::atomic<std::uint64_t> loads{0};
  return timed_threads(threads, [&](int t) {
    Bytes buf;
    std::size_t x = static_cast<std::size_t>(t) * 2654435761u + 1;
    for (std::size_t i = 0; i < ops_per_thread; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      open_read_close(cache, ds, (x >> 33) % ds.paths.size(), buf, loads);
    }
  });
}

struct Series {
  std::vector<int> threads;
  std::vector<double> kops;
};

std::string json_array(const std::vector<int>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(v[i]);
  }
  return s + "]";
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += bench::fmt("%.2f", v[i]);
  }
  return s + "]";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }
  const std::vector<int> thread_counts =
      quick ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8, 16};
  const std::size_t files = quick ? 12 : 48;
  const std::size_t epoch_len = 2 * files;  // two epoch passes
  const std::size_t miss_ops = quick ? 16 : 48;
  const std::size_t kShards = 8;

  const Dataset ds = make_dataset(files);
  const std::size_t hit_capacity = 4 * files * kFileBytes;  // fits + shard-skew headroom
  const std::size_t miss_capacity = files * kFileBytes / 4;  // 4x over-subscribed

  Series hit, miss;
  bool metrics_ok = true;
  bench::section("Hot path: shared-epoch hit-heavy mix (open/read/close per sec)");
  bench::Table hit_table({"threads", "sharded+SF kops/s", "loads"});
  bench::Table hit_metrics_table(
      {"threads", "cache.hits", "cache.misses", "sf-waits", "evictions"});
  for (const int t : thread_counts) {
    const std::size_t total_ops = static_cast<std::size_t>(t) * epoch_len;
    core::PlainCache sharded(hit_capacity, kShards);
    std::atomic<std::uint64_t> sharded_loads{0};
    const double sharded_sec =
        run_shared_epoch(sharded, ds, t, epoch_len, sharded_loads);
    const double sharded_kops = static_cast<double>(total_ops) / sharded_sec / 1e3;
    hit.threads.push_back(t);
    hit.kops.push_back(sharded_kops);
    hit_table.row({std::to_string(t), bench::fmt("%.1f", sharded_kops),
                   std::to_string(sharded_loads.load())});

    // Cross-check the cache's registry counters against the bench's own
    // bookkeeping: every loader invocation is a miss, everything else a hit.
    auto& m = sharded.metrics();
    const std::uint64_t hits = m.counter("cache.hits").value();
    const std::uint64_t misses = m.counter("cache.misses").value();
    hit_metrics_table.row(
        {std::to_string(t), std::to_string(hits), std::to_string(misses),
         std::to_string(m.counter("cache.single_flight_waits").value()),
         std::to_string(m.counter("cache.evictions").value())});
    if (misses != sharded_loads.load()) {
      std::fprintf(stderr,
                   "METRICS MISMATCH: cache.misses=%llu but the bench ran "
                   "%llu loaders (t=%d)\n",
                   static_cast<unsigned long long>(misses),
                   static_cast<unsigned long long>(sharded_loads.load()), t);
      metrics_ok = false;
    }
    if (hits + misses != total_ops) {
      std::fprintf(stderr,
                   "METRICS MISMATCH: hits+misses=%llu but the bench issued "
                   "%zu acquires (t=%d)\n",
                   static_cast<unsigned long long>(hits + misses), total_ops, t);
      metrics_ok = false;
    }
  }
  hit_table.print();
  bench::section("Per-phase cache metric deltas (fresh cache per row)");
  hit_metrics_table.print();

  bench::section("Hot path: miss-heavy mix, 4x over-subscribed cache");
  bench::Table miss_table({"threads", "sharded+SF kops/s"});
  for (const int t : thread_counts) {
    const std::size_t total_ops = static_cast<std::size_t>(t) * miss_ops;
    core::PlainCache sharded(miss_capacity, 0);  // production auto-shard policy
    const double sharded_sec = run_miss_heavy(sharded, ds, t, miss_ops);
    const double sharded_kops = static_cast<double>(total_ops) / sharded_sec / 1e3;
    miss.threads.push_back(t);
    miss.kops.push_back(sharded_kops);
    miss_table.row({std::to_string(t), bench::fmt("%.1f", sharded_kops)});
  }
  miss_table.print();

  // --- End-to-end FanStoreFs open/read/close (post-PR path) --------------
  bench::section("FanStoreFs end-to-end open/read/close, warm cache");
  bench::Table fs_table(
      {"threads", "kops/s", "d fs.opens", "d cache.hits", "d fs.bytes_read"});
  std::vector<int> fs_threads;
  std::vector<double> fs_kops;
  mpi::run_world(1, [&](mpi::Comm& comm) {
    core::Instance::Options opt;
    opt.fs.cache_bytes = hit_capacity;
    opt.fs.cache_shards = kShards;
    core::Instance inst(comm, opt);
    const auto& reg = compress::Registry::instance();
    format::PartitionWriter w;
    for (std::size_t i = 0; i < files; ++i) {
      w.add(format::make_record(ds.paths[i], *ds.codec, reg.id_of(*ds.codec),
                                as_view(sample_file(i))));
    }
    const Bytes blob = w.serialize();
    inst.load_partition_blob(as_view(blob), 0);
    inst.exchange_metadata();
    for (const auto& p : ds.paths) (void)posixfs::read_file(inst.fs(), p);  // warm

    for (const int t : thread_counts) {
      const std::size_t per_thread = epoch_len;
      const auto before = inst.metrics().snapshot();
      const double sec = timed_threads(t, [&](int tid) {
        Bytes buf(kFileBytes);
        std::size_t x = static_cast<std::size_t>(tid) * 40503u + 11;
        for (std::size_t k = 0; k < per_thread; ++k) {
          x = x * 6364136223846793005ull + 1442695040888963407ull;
          const std::string& p = ds.paths[(x >> 33) % ds.paths.size()];
          const int fd = inst.fs().open(p, posixfs::OpenMode::kRead);
          if (fd < 0) continue;
          while (inst.fs().read(fd, MutByteView{buf.data(), buf.size()}) > 0) {
          }
          inst.fs().close(fd);
        }
      });
      const auto after = inst.metrics().snapshot();
      const double kops =
          static_cast<double>(static_cast<std::size_t>(t) * per_thread) / sec / 1e3;
      const std::uint64_t d_opens =
          after.counter("fs.opens") - before.counter("fs.opens");
      const std::uint64_t d_hits =
          after.counter("cache.hits") - before.counter("cache.hits");
      fs_threads.push_back(t);
      fs_kops.push_back(kops);
      fs_table.row(
          {std::to_string(t), bench::fmt("%.1f", kops), std::to_string(d_opens),
           std::to_string(d_hits),
           std::to_string(after.counter("fs.bytes_read") -
                          before.counter("fs.bytes_read"))});
      // Warm cache + all paths valid: every issued open must land, as a hit.
      const std::size_t issued = static_cast<std::size_t>(t) * per_thread;
      if (d_opens != issued || d_hits != issued) {
        std::fprintf(stderr,
                     "METRICS MISMATCH: fs phase issued %zu opens but "
                     "d(fs.opens)=%llu d(cache.hits)=%llu (t=%d)\n",
                     issued, static_cast<unsigned long long>(d_opens),
                     static_cast<unsigned long long>(d_hits), t);
        metrics_ok = false;
      }
    }
  });
  fs_table.print();

  const std::string header = bench::json_header("hotpath", quick, "wall");
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_hotpath: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "%s,\n"
               "  \"file_bytes\": %zu,\n"
               "  \"files\": %zu,\n"
               "  \"cache_shards\": %zu,\n"
               "  \"hit_heavy_shared_epoch\": {\n"
               "    \"threads\": %s,\n"
               "    \"sharded_single_flight_kops\": %s\n"
               "  },\n"
               "  \"miss_heavy\": {\n"
               "    \"threads\": %s,\n"
               "    \"sharded_single_flight_kops\": %s\n"
               "  },\n"
               "  \"fanstore_fs_warm_open_read_close\": {\n"
               "    \"threads\": %s,\n"
               "    \"kops\": %s\n"
               "  }\n"
               "}\n",
               header.c_str(), kFileBytes, files, kShards,
               json_array(hit.threads).c_str(), json_array(hit.kops).c_str(),
               json_array(miss.threads).c_str(), json_array(miss.kops).c_str(),
               json_array(fs_threads).c_str(), json_array(fs_kops).c_str());
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  if (!metrics_ok) {
    std::fprintf(stderr,
                 "bench_hotpath: registry counters disagree with bench "
                 "bookkeeping (see METRICS MISMATCH above)\n");
    return 1;
  }
  std::printf("metrics cross-check: OK\n");
  return 0;
}
