// Concurrency stress tests modeled on §II-B: a Keras/Horovod stack on four
// nodes runs 96 independent I/O threads, each enumerating and reading the
// dataset. FanStore must absorb that concurrency in RAM without corruption.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "compress/registry.hpp"
#include "core/instance.hpp"
#include "prep/prepare.hpp"
#include "tests/sanitizer_env.hpp"
#include "tests/test_data.hpp"
#include "util/timer.hpp"

namespace fanstore::core {
namespace {

Bytes file_content(int i) { return testdata::runs_and_noise(2000 + i * 7, i); }

void load_files(Instance& inst, int nfiles, const char* codec_name) {
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name(codec_name);
  format::PartitionWriter w;
  for (int i = 0; i < nfiles; ++i) {
    w.add(format::make_record("ds/d" + std::to_string(i % 8) + "/f" + std::to_string(i),
                              *codec, reg.id_of(*codec), as_view(file_content(i))));
  }
  const Bytes blob = w.serialize();
  inst.load_partition_blob(as_view(blob), 0);
  inst.exchange_metadata();
}

TEST(StressTest, MetadataStormFrom96Threads) {
  // The §II-B1 pattern: 96 threads, each doing readdir() + stat() sweeps.
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    constexpr int kFiles = 2000;
    load_files(inst, kFiles, "store");
    auto& fs = inst.fs();

    constexpr int kThreads = 96;
    constexpr int kSweepsPerThread = 5;
    std::atomic<std::uint64_t> stats_done{0};
    std::atomic<int> errors{0};
    std::vector<std::thread> threads;
    WallTimer timer;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int sweep = 0; sweep < kSweepsPerThread; ++sweep) {
          const int dh = fs.opendir("ds");
          if (dh < 0) {
            errors++;
            return;
          }
          std::vector<std::string> dirs;
          while (auto e = fs.readdir(dh)) dirs.push_back(e->name);
          fs.closedir(dh);
          for (const auto& d : dirs) {
            const int sub = fs.opendir("ds/" + d);
            if (sub < 0) {
              errors++;
              continue;
            }
            while (auto e = fs.readdir(sub)) {
              format::FileStat st;
              if (fs.stat("ds/" + d + "/" + e->name, &st) != 0) {
                errors++;
              } else {
                stats_done.fetch_add(1, std::memory_order_relaxed);
              }
            }
            fs.closedir(sub);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    const double elapsed = timer.elapsed_sec();
    EXPECT_EQ(errors.load(), 0);
    EXPECT_EQ(stats_done.load(),
              static_cast<std::uint64_t>(kThreads) * kSweepsPerThread * kFiles);
    // All in-RAM: the aggregate stat rate must be far beyond what any
    // metadata server sustains (paper's motivation for localization).
    // Sanitizer builds keep the correctness assertions above but not this
    // throughput floor — instrumentation costs an order of magnitude.
    const double rate = static_cast<double>(stats_done.load()) / elapsed;
    if (!testsupport::kUnderSanitizer) {
      EXPECT_GT(rate, 200000.0) << "aggregate stat rate " << rate << "/s";
    }
  });
}

TEST(StressTest, ConcurrentReadsUnderCachePressure) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance::Options opt;
    opt.fs.cache_bytes = 16 * 1024;  // far below the working set: constant eviction
    Instance inst(comm, opt);
    constexpr int kFiles = 64;
    load_files(inst, kFiles, "lz4hc");
    auto& fs = inst.fs();

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 16; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 200; ++i) {
          const int id = (t * 31 + i * 17) % kFiles;
          const auto got = posixfs::read_file(
              fs, "ds/d" + std::to_string(id % 8) + "/f" + std::to_string(id));
          if (!got || *got != file_content(id)) mismatches++;
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0);
    // Eviction really happened and capacity was honoured at rest.
    EXPECT_GT(fs.metrics().counter("cache.evictions").value(), 0u);
    EXPECT_LE(fs.tiers().plain().bytes_used(), opt.fs.cache_bytes + 16 * 1024);
  });
}

TEST(StressTest, RemoteFetchStormAcrossRanks) {
  // 4 ranks x 8 application threads all fetching remote files through the
  // daemons simultaneously.
  constexpr int kRanks = 4;
  constexpr int kPerRank = 16;
  mpi::run_world(kRanks, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    const auto& reg = compress::Registry::instance();
    const auto* codec = reg.by_name("zstd");
    format::PartitionWriter w;
    for (int i = 0; i < kPerRank; ++i) {
      const int id = comm.rank() * kPerRank + i;
      w.add(format::make_record("p/f" + std::to_string(id), *codec,
                                reg.id_of(*codec), as_view(file_content(id))));
    }
    const Bytes blob = w.serialize();
    inst.load_partition_blob(as_view(blob), static_cast<std::uint32_t>(comm.rank()));
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(static_cast<std::uint64_t>(comm.rank()) * 100 + t);
        for (int i = 0; i < 50; ++i) {
          const int id = static_cast<int>(rng.next_below(kRanks * kPerRank));
          const auto got = posixfs::read_file(inst.fs(), "p/f" + std::to_string(id));
          if (!got || *got != file_content(id)) mismatches++;
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0);
    comm.barrier();
    inst.stop();
  });
}

}  // namespace
}  // namespace fanstore::core
