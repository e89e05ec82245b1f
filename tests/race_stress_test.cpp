// Sanitizer-oriented stress tests: many threads hammering the shared-state
// hot spots (plain-data cache, mpi mailboxes/collectives, UDS daemon,
// thread pool). Assertions are deliberately coarse — the point is to give
// TSan/ASan (FANSTORE_SANITIZE=thread / address;undefined) dense interleavings
// to chew on, while staying fast enough for the tier-1 suite.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cluster/node.hpp"
#include "compress/chunked.hpp"
#include "compress/registry.hpp"
#include "core/cache.hpp"
#include "format/partition.hpp"
#include "core/instance.hpp"
#include "core/tiered_cache.hpp"
#include "fault/injector.hpp"
#include "tests/sanitizer_env.hpp"
#include "ipc/uds_client.hpp"
#include "ipc/server.hpp"
#include "mpi/comm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "posixfs/mem_vfs.hpp"
#include "tests/test_data.hpp"
#include "util/thread_pool.hpp"

namespace fanstore {
namespace {

TEST(RaceStressTest, CacheInsertEvictLookup) {
  // 32 distinct 4 KiB entries against a 64 KiB pool: eviction is constantly
  // active while other threads acquire, release, and probe.
  core::PlainCache cache(64 * 1024);
  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  std::atomic<int> loader_runs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::string path = "f" + std::to_string((t * 7 + i) % 32);
        const auto data = cache.acquire_file(path, [&] {
          loader_runs.fetch_add(1);
          return std::make_shared<core::CachedFile>(
              Bytes(4096, static_cast<std::uint8_t>(path.back())));
        });
        ASSERT_EQ(data->size(), 4096u);
        ASSERT_EQ(data->plain()[0], static_cast<std::uint8_t>(path.back()));
        if (i % 3 == 0) cache.contains(path);
        if (i % 5 == 0) cache.bytes_used();
        cache.release(path);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto stats = cache.metrics().snapshot();
  EXPECT_EQ(stats.counter("cache.hits") + stats.counter("cache.misses"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  // Single-flight: every miss ran the loader exactly once — concurrent
  // misses on one path coalesce; evictions must have kept the pool bounded
  // once every pin is dropped.
  EXPECT_EQ(loader_runs.load(), static_cast<int>(stats.counter("cache.misses")));
  EXPECT_LE(cache.bytes_used(), cache.capacity());
}

TEST(RaceStressTest, ShardedSingleFlightStress) {
  // 8 threads over 12 hot paths in an 8-shard cache whose per-shard budget
  // forces constant eviction: miss coalescing, shard FIFO pressure, waiter
  // wake-ups, and the introspection calls all interleave densely (the TSan
  // leg of tools/ci.sh runs this with FANSTORE_SANITIZE=thread).
  core::PlainCache cache(96 * 1024, 8);
  ASSERT_EQ(cache.shard_count(), 8u);
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::atomic<int> loader_runs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Low path cardinality: most iterations collide with another
        // thread's in-flight load or pinned entry.
        const std::string path = "hot" + std::to_string((t + i) % 12);
        const auto data = cache.acquire_file(path, [&] {
          loader_runs.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          return std::make_shared<core::CachedFile>(
              Bytes(4096, static_cast<std::uint8_t>(path.back())));
        });
        ASSERT_EQ(data->size(), 4096u);
        ASSERT_EQ(data->plain()[0], static_cast<std::uint8_t>(path.back()));
        if (i % 3 == 0) cache.contains(path);
        if (i % 5 == 0) cache.bytes_used();
        if (i % 7 == 0) cache.open_count(path);
        cache.release(path);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto stats = cache.metrics().snapshot();
  EXPECT_EQ(stats.counter("cache.hits") + stats.counter("cache.misses"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  // Structural single-flight invariant: a loader run is exactly a miss.
  EXPECT_EQ(loader_runs.load(), static_cast<int>(stats.counter("cache.misses")));
  EXPECT_LE(cache.bytes_used(), cache.capacity());
}

TEST(RaceStressTest, SingleFlightReadmitKeepsByteAccountingExact) {
  // 16 threads over 64 paths of distinct sizes in one tiny shard. A
  // single-flight waiter that wakes to find the loader's entry already
  // evicted re-admits the bytes it was handed, while a second loader of the
  // same path may be in flight; both admissions must land on one entry.
  // Once every thread has joined, the shard's byte count must equal the
  // sizes of the entries still resident, and no pin may be left behind.
  constexpr int kPaths = 64;
  constexpr int kThreads = 16;
  const int kRounds = testsupport::kUnderSanitizer ? 4 : 40;
  const int kIters = testsupport::kUnderSanitizer ? 100 : 200;
  auto size_of = [](int i) { return static_cast<std::size_t>(256 + 32 * i); };
  for (int round = 0; round < kRounds; ++round) {
    core::PlainCache cache(16 * 1024, 1);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kIters; ++i) {
          const int id = (t * 31 + i * 17 + round) % kPaths;
          const std::string path = "p" + std::to_string(id);
          const auto data = cache.acquire_file(path, [&] {
            return std::make_shared<core::CachedFile>(Bytes(size_of(id)));
          });
          ASSERT_EQ(data->size(), size_of(id));
          cache.release(path);
        }
      });
    }
    for (auto& th : threads) th.join();
    std::size_t resident = 0;
    for (int i = 0; i < kPaths; ++i) {
      const std::string path = "p" + std::to_string(i);
      if (cache.contains(path)) resident += size_of(i);
      ASSERT_EQ(cache.open_count(path), 0) << path << " in round " << round;
    }
    ASSERT_EQ(cache.bytes_used(), resident) << "round " << round;
    ASSERT_LE(cache.bytes_used(), cache.capacity()) << "round " << round;
  }
}

TEST(RaceStressTest, ChunkedPartialMaterializationRace) {
  // One shared lazy chunked entry (32 x 16 KiB chunks) acquired through the
  // cache, hammered by 8 threads doing random-window read_range() calls
  // while two of them repeatedly kick materialize_all(): chunk claims,
  // condvar waits, parallel decode publication, and recharge() all
  // interleave. The claim protocol must decode each chunk exactly once
  // globally and every window must read back byte-identical data.
  const Bytes original = testdata::runs_and_noise(std::size_t{512} << 10, 7);
  const auto& reg = compress::Registry::instance();
  const compress::Compressor* codec = reg.by_name("chunked-16k+lz4");
  ASSERT_NE(codec, nullptr);
  Bytes packed = codec->compress(as_view(original));
  const compress::CompressorId id = reg.id_of(*codec);

  core::PlainCache cache(std::size_t{4} << 20);
  auto file = cache.acquire_file("big", [&] {
    return std::make_shared<core::CachedFile>(std::move(packed), id,
                                              original.size());
  });
  ASSERT_EQ(file->chunk_count(), 32u);

  constexpr int kThreads = 8;
  constexpr int kIters = 120;
  std::atomic<std::size_t> chunks_decoded{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) * 131 + 5);
      Bytes buf(24 << 10);
      for (int i = 0; i < kIters; ++i) {
        core::CachedFile::DecodeStats ds;
        if (t < 2 && i % 40 == 17) {
          file->materialize_all(3, &ds);
        } else {
          const std::size_t off = rng.next_below(original.size() - buf.size());
          file->read_range(off, MutByteView(buf.data(), buf.size()), &ds);
          ASSERT_TRUE(std::equal(
              buf.begin(), buf.end(),
              original.begin() + static_cast<std::ptrdiff_t>(off)));
        }
        chunks_decoded.fetch_add(ds.chunks_decoded);
        if (ds.chunks_decoded > 0) cache.recharge("big");
      }
    });
  }
  for (auto& t : threads) t.join();
  // Exactly-once accounting across every racing caller.
  EXPECT_EQ(chunks_decoded.load(), 32u);
  EXPECT_TRUE(file->fully_materialized());
  EXPECT_EQ(file->plain(), original);
  cache.release("big");
}

TEST(RaceStressTest, TieredPromoteDemoteAcrossShards) {
  // Eight threads over a 16-path working set in an 8-shard tiered stack
  // whose per-shard plain budget holds at most one entry: every acquire
  // either demotes a victim (chunked frames → compressed RAM, flat blobs →
  // spill, compressed overflow → spill) or promotes a lower-tier copy back
  // up (promote_after_hits=1 maximizes churn). TSan sees shard locks,
  // comp_mu_, spill_mu_, single-flight slots, and the per-chunk decode
  // protocol interleave; every read must still return perfect bytes.
  constexpr int kPaths = 16;
  constexpr int kThreads = 8;
  const int kIters = testsupport::kUnderSanitizer ? 60 : 150;

  const auto& reg = compress::Registry::instance();
  const compress::CompressorId chunked_id =
      compress::chunked_id(reg.id_by_name("lz4"), 4096);
  // Even paths are chunked 8 KiB objects (demote to compressed RAM); odd
  // paths are flat 4 KiB blobs (demote straight to the spill device).
  std::vector<Bytes> plains;
  std::vector<Bytes> frames;
  for (int i = 0; i < kPaths; ++i) {
    const auto fill = static_cast<std::uint8_t>(i + 1);
    plains.emplace_back(i % 2 == 0 ? 8192 : 4096, fill);
    frames.push_back(i % 2 == 0
                         ? reg.by_id(chunked_id)->compress(as_view(plains.back()))
                         : Bytes{});
  }

  core::TieredCache::Options opt;
  opt.plain_bytes = 96 * 1024;
  opt.plain_shards = 8;
  opt.compressed_bytes = 4096;  // a handful of frames, then overflow → spill
  opt.spill_bytes = std::size_t{1} << 20;
  opt.promote_after_hits = 1;
  core::TieredCache tc(opt);
  ASSERT_EQ(tc.plain().shard_count(), 8u);

  std::atomic<std::uint64_t> cold_loads{0};
  auto cold = [&](int i) -> core::TieredCache::ColdLoader {
    return [&, i] {
      cold_loads.fetch_add(1, std::memory_order_relaxed);
      core::ColdResult r;
      if (i % 2 == 0) {
        r.file = std::make_shared<core::CachedFile>(Bytes(frames[i]),
                                                    chunked_id,
                                                    plains[i].size());
      } else {
        r.file = std::make_shared<core::CachedFile>(Bytes(plains[i]));
      }
      return r;
    };
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        const int i = (t * 7 + it) % kPaths;
        const std::string path = "tier" + std::to_string(i);
        const auto file = tc.acquire_file(path, cold(i));
        ASSERT_NE(file, nullptr);
        file->materialize_all(1, nullptr);
        tc.recharge(path);  // eviction pressure → demotion into lower tiers
        const Bytes& got = file->plain();
        ASSERT_EQ(got.size(), plains[static_cast<std::size_t>(i)].size());
        ASSERT_EQ(got.front(), static_cast<std::uint8_t>(i + 1));
        ASSERT_EQ(got.back(), static_cast<std::uint8_t>(i + 1));
        if (it % 3 == 0) tc.contains_any(path);
        if (it % 5 == 0) tc.compressed_bytes_used();
        if (it % 7 == 0) tc.spill_bytes_used();
        tc.release(path);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Accounting identity holds even under maximal churn: every plain-tier
  // miss resolved in exactly one lower tier (or went cold).
  auto& m = tc.metrics();
  EXPECT_EQ(m.counter("cache.misses").value(),
            m.counter("tier.compressed.hits").value() +
                m.counter("tier.spill.hits").value() +
                m.counter("tier.peer.hits").value() +
                m.counter("tier.cold.loads").value());
  EXPECT_EQ(m.counter("tier.cold.loads").value(), cold_loads.load());
  EXPECT_GE(cold_loads.load(), static_cast<std::uint64_t>(kPaths));
  // With every pin dropped, each tier has settled back under its budget.
  EXPECT_LE(tc.plain().bytes_used(), tc.plain().capacity());
  EXPECT_LE(tc.compressed_bytes_used(), opt.compressed_bytes);
  EXPECT_LE(tc.spill_bytes_used(), opt.spill_bytes);
}

TEST(RaceStressTest, MailboxSendRecvAcrossRankThreads) {
  // Every rank runs an application thread and a daemon-like sibling sharing
  // one Comm: tag 1 is consumed by the app, tag 2 by the sibling, matching
  // the FanStore daemon's recv_if discipline. Everybody sends to everybody.
  constexpr int kRanks = 4;
  constexpr int kMsgs = 50;
  mpi::run_world(kRanks, [&](mpi::Comm& comm) {
    const int n = comm.size();
    std::atomic<std::uint64_t> sibling_bytes{0};
    std::thread sibling([&] {
      for (int i = 0; i < kMsgs * n; ++i) {
        const mpi::Message m = comm.recv_if(
            [](const mpi::Message& msg) { return msg.tag == 2; });
        sibling_bytes.fetch_add(m.payload.size());
      }
    });
    for (int i = 0; i < kMsgs; ++i) {
      for (int dest = 0; dest < n; ++dest) {
        comm.send(dest, 1, Bytes(8, static_cast<std::uint8_t>(comm.rank())));
        comm.send(dest, 2, Bytes(16, static_cast<std::uint8_t>(i)));
      }
      if (i % 10 == 0) comm.barrier();
    }
    std::uint64_t app_bytes = 0;
    for (int i = 0; i < kMsgs * n; ++i) {
      app_bytes += comm.recv(mpi::kAnySource, 1).payload.size();
    }
    sibling.join();
    EXPECT_EQ(app_bytes, static_cast<std::uint64_t>(kMsgs) * n * 8);
    EXPECT_EQ(sibling_bytes.load(), static_cast<std::uint64_t>(kMsgs) * n * 16);
    // Collectives still line up after the point-to-point storm.
    const auto sums = comm.allreduce_sum({1.0});
    EXPECT_DOUBLE_EQ(sums[0], static_cast<double>(n));
  });
}

TEST(RaceStressTest, ConcurrentUdsRequestsAndStop) {
  posixfs::MemVfs fs;
  for (int i = 0; i < 8; ++i) {
    posixfs::write_file(fs, "d/f" + std::to_string(i),
                        as_view(testdata::random_bytes(2048, i)));
  }
  const std::string sock =
      "/tmp/fanstore_race_" + std::to_string(getpid()) + ".sock";
  ipc::ServerOptions opt;
  opt.shards = 2;
  opt.blocker_threads = 2;
  ipc::Server server({ipc::Endpoint::uds(sock)}, fs, opt);
  server.start();

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      ipc::UdsClientVfs client(sock);
      for (int i = 0; i < 25; ++i) {
        const std::string path = "d/f" + std::to_string((c + i) % 8);
        const auto got = posixfs::read_file(client, path);
        if (!got || got->size() != 2048) failures.fetch_add(1);
        if (i % 6 == 0) {
          format::FileStat st;
          if (client.stat(path, &st) != 0) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server.requests_served(), 200u);

  // stop() must cleanly kick a client that is connected but idle.
  ipc::UdsClientVfs idle(sock);
  ASSERT_TRUE(idle.connect());
  server.stop();
  EXPECT_EQ(idle.open("d/f0", posixfs::OpenMode::kRead), -EIO);
}

TEST(RaceStressTest, MetricsAndTraceRecordingVsSnapshot) {
  // Writers hammer one registry (shared counters/gauges/histograms plus a
  // steady trickle of new registrations) and an enabled trace recorder
  // (per-thread rings) while two readers continuously snapshot and
  // serialize. TSan sees recording racing snapshotting, ring appends racing
  // the JSON flattener, and registration racing both.
  obs::MetricsRegistry reg;
  obs::TraceRecorder rec(/*ring_capacity=*/64);
  rec.enable(true);
  obs::Counter& ops = reg.counter("stress.ops");
  obs::Gauge& depth = reg.gauge("stress.depth");
  obs::Histogram& lat = reg.histogram("stress.lat_us");

  constexpr int kWriters = 6;
  constexpr int kIters = 400;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        obs::TraceSpan span("stress.op", nullptr, rec);
        ops.inc();
        depth.add(i % 2 == 0 ? 1 : -1);
        lat.record(static_cast<std::uint64_t>(t) * 100 + (i % 13));
        if (i % 16 == 0) {
          // Late registration: takes the registry mutex against snapshots.
          reg.counter("stress.dyn" + std::to_string((t * 31 + i) % 24)).inc();
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = reg.snapshot();
        (void)snap.to_text();
        (void)rec.to_chrome_json();
        (void)rec.event_count();
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(ops.value(), static_cast<std::uint64_t>(kWriters) * kIters);
  EXPECT_EQ(lat.count(), static_cast<std::uint64_t>(kWriters) * kIters);
  // Rings are bounded: at most capacity events retained per writer thread.
  EXPECT_LE(rec.event_count(), static_cast<std::size_t>(kWriters) * 64);
}

TEST(RaceStressTest, ThreadPoolChurn) {
  std::atomic<int> ran{0};
  for (int round = 0; round < 4; ++round) {
    ThreadPool pool(4);
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 50; ++i) pool.submit([&ran] { ran.fetch_add(1); });
      });
    }
    for (auto& t : submitters) t.join();
    if (round % 2 == 0) pool.wait_idle();
    // Odd rounds: destructor runs with the queue still busy and must drain.
  }
  EXPECT_EQ(ran.load(), 4 * 3 * 50);
}

TEST(RaceStressTest, ChaosDaemonKillRestartDuringConcurrentReads) {
  // Readers hammer the remote-fetch path while two kinds of chaos run
  // concurrently: the injector flips the owner daemon dead/alive, and the
  // owner rank stops/starts its *real* daemon thread. Every read must
  // still return perfect bytes (retry + ring-replica failover), and the
  // locking along fetch/cache/daemon paths gets exercised under TSan and
  // the debug lock-order checker.
  constexpr int kFiles = 8;
  const int kReaders = 4;
  const int kIters = testsupport::kUnderSanitizer ? 6 : 24;
  const int kChurn = testsupport::kUnderSanitizer ? 4 : 12;

  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name("lz4");
  format::PartitionWriter w;
  std::vector<Bytes> contents;
  for (int i = 0; i < kFiles; ++i) {
    contents.push_back(testdata::runs_and_noise(3000, 500 + i));
    w.add(format::make_record("s" + std::to_string(i), *codec,
                              reg.id_of(*codec), as_view(contents.back())));
  }
  const Bytes part = w.serialize();

  fault::FaultInjector inj(fault::FaultPlan{});  // manual kill/revive only
  std::atomic<bool> readers_done{false};
  std::atomic<std::uint64_t> good_reads{0};

  mpi::run_world(
      3,
      [&](mpi::Comm& comm) {
        core::Instance::Options opt;
        opt.fs.fetch_timeout_ms = testsupport::kUnderSanitizer ? 150 : 30;
        opt.fs.failover_hops = 2;
        opt.fs.retry.max_attempts = 4;
        opt.fs.retry.base_delay_ms = 1;
        opt.fs.retry.max_delay_ms = 4;
        // Tiny cache: entries keep getting evicted, so reads keep going
        // back over the wire instead of settling into cache hits.
        opt.fs.cache_bytes = 2 * 4096;
        opt.fault = &inj;
        core::Instance inst(comm, opt);
        if (comm.rank() == 1) inst.load_partition_blob(as_view(part), 0, 1);
        if (comm.rank() == 2) {
          for (const auto& rec : format::scan_partition(as_view(part))) {
            core::Blob b;
            b.compressor = rec.compressor;
            b.data = Bytes(rec.data.begin(), rec.data.end());
            inst.backend().put(std::string(rec.path), std::move(b));
          }
        }
        inst.exchange_metadata();
        inst.start_daemon();
        comm.barrier();

        if (comm.rank() == 0) {
          // Injector-level chaos: flip the owner daemon dead/alive.
          std::thread flipper([&] {
            while (!readers_done.load(std::memory_order_acquire)) {
              inj.kill_daemon(1);
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
              inj.revive_daemon(1);
              std::this_thread::sleep_for(std::chrono::milliseconds(3));
            }
            inj.revive_daemon(1);
          });
          std::vector<std::thread> readers;
          for (int t = 0; t < kReaders; ++t) {
            readers.emplace_back([&, t] {
              for (int i = 0; i < kIters; ++i) {
                const int f = (i * kReaders + t) % kFiles;
                const auto got =
                    posixfs::read_file(inst.fs(), "s" + std::to_string(f));
                ASSERT_TRUE(got.has_value()) << "file " << f << " iter " << i;
                ASSERT_EQ(*got, contents[static_cast<std::size_t>(f)]);
                good_reads.fetch_add(1, std::memory_order_relaxed);
              }
            });
          }
          for (auto& th : readers) th.join();
          readers_done.store(true, std::memory_order_release);
          flipper.join();
        } else if (comm.rank() == 1) {
          // Real-daemon chaos: stop/start the serving thread itself.
          for (int j = 0; j < kChurn &&
                          !readers_done.load(std::memory_order_acquire); ++j) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            inst.stop();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            inst.start_daemon();
          }
        }
        comm.barrier();
        inst.stop();
      },
      &inj);
  EXPECT_EQ(good_reads.load(),
            static_cast<std::uint64_t>(kReaders) * static_cast<std::uint64_t>(kIters));
}

TEST(RaceStressTest, ClusterLookupsAndInsertsDuringRebalance) {
  // Sharded-metadata cluster (rf=2 over 3 ranks) under concurrent load:
  // on every rank, reader threads resolve the whole namespace through the
  // cluster node (ring lookups + remote meta RPCs) and a writer thread
  // keeps inserting fresh versioned entries, while the main thread drives
  // lockstep rebalance rounds that serialize, push, and drop whole shards,
  // and a rebuilder thread re-bootstraps the same member list so the ring
  // is rebuilt (and resolve()'s lookup cache emptied) under the
  // readers' cached resolves. TSan sees cluster.node.mu (view/ring reads
  // racing rebuilds), cluster.lookup_cache.mu (cache hits and inserts
  // racing invalidation), the shard store mutex (insert vs
  // serialize_shard vs drop_shard), and the service thread's merge path
  // racing client-side lookups.
  constexpr int kRanks = 3;
  constexpr int kFilesPerRank = 8;
  constexpr int kWriterKeys = 8;
  const int kRounds = testsupport::kUnderSanitizer ? 4 : 8;

  std::vector<std::string> all_paths;
  std::vector<std::size_t> sizes;
  for (int r = 0; r < kRanks; ++r) {
    for (int i = 0; i < kFilesPerRank; ++i) {
      all_paths.push_back("c/r" + std::to_string(r) + "/f" + std::to_string(i));
      sizes.push_back(1000u + static_cast<std::size_t>(r) * kFilesPerRank + i);
    }
  }

  mpi::run_world(kRanks, [&](mpi::Comm& comm) {
    core::Instance::Options opt;
    opt.cluster.replication_factor = 2;
    core::Instance inst(comm, opt);
    const auto& reg = compress::Registry::instance();
    const auto* codec = reg.by_name("lz4");
    format::PartitionWriter w;
    for (int i = 0; i < kFilesPerRank; ++i) {
      const std::size_t idx =
          static_cast<std::size_t>(comm.rank()) * kFilesPerRank +
          static_cast<std::size_t>(i);
      w.add(format::make_record(all_paths[idx], *codec, reg.id_of(*codec),
                                as_view(testdata::runs_and_noise(
                                    sizes[idx], 900 + static_cast<int>(idx)))));
    }
    const Bytes part = w.serialize();
    inst.load_partition_blob(as_view(part), comm.rank());
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    auto* node = inst.cluster_node();
    ASSERT_NE(node, nullptr);
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> resolved{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 2; ++t) {
      workers.emplace_back([&, t] {
        std::size_t i = static_cast<std::size_t>(t);
        while (!stop.load(std::memory_order_acquire)) {
          const std::size_t idx = i % all_paths.size();
          // Mid-rebalance a resolve may transiently miss or time out — the
          // coarse invariant is "never wrong, never crashed": a hit must
          // carry the exact size the loader registered.
          if (const auto got = node->resolve(all_paths[idx])) {
            ASSERT_EQ(got->stat.size, sizes[idx]) << all_paths[idx];
            resolved.fetch_add(1, std::memory_order_relaxed);
          }
          if (i % 5 == 0) node->view_digest();
          if (i % 7 == 0) {
            node->owns_shard(static_cast<std::uint32_t>(i) % node->nshards());
          }
          ++i;
        }
      });
    }
    workers.emplace_back([&] {
      // Rebuilder: the member list is unchanged, so ownership stays put,
      // but every call rebuilds the ring and starts a new cache epoch.
      std::vector<int> members(kRanks);
      for (int r = 0; r < kRanks; ++r) members[static_cast<std::size_t>(r)] = r;
      while (!stop.load(std::memory_order_acquire)) {
        node->bootstrap(members);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
    workers.emplace_back([&] {
      // Writer: churn versioned entries on this rank's private key space so
      // inserts race shard serialization/drops without cross-rank conflicts.
      std::uint64_t version = 0;
      format::FileStat st;
      st.owner_rank = static_cast<std::uint32_t>(comm.rank());
      while (!stop.load(std::memory_order_acquire)) {
        const std::string p = "c/w" + std::to_string(comm.rank()) + "/x" +
                              std::to_string(version % kWriterKeys);
        st.size = 10 + version;
        st.compressed_size = st.size;
        inst.metadata().insert_versioned(
            p, {st, ++version, static_cast<std::uint32_t>(comm.rank())});
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });

    for (int round = 0; round < kRounds; ++round) {
      (void)node->rebalance();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      comm.barrier();
    }
    stop.store(true, std::memory_order_release);
    for (auto& th : workers) th.join();
    comm.barrier();

    // Quiesce: two more lockstep rounds push the writers' last entries to
    // their owners and drop stragglers, then everything must resolve from
    // every rank.
    for (int round = 0; round < 2; ++round) {
      (void)node->rebalance();
      comm.barrier();
    }
    // Twice: the second pass is served by the lookup cache.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t idx = 0; idx < all_paths.size(); ++idx) {
        const auto got = node->resolve(all_paths[idx]);
        ASSERT_TRUE(got.has_value()) << all_paths[idx];
        EXPECT_EQ(got->stat.size, sizes[idx]) << all_paths[idx];
      }
    }
    EXPECT_GT(inst.metrics().counter("cluster.lookup_cache_hits").value(), 0u);
    for (int r = 0; r < kRanks; ++r) {
      for (int k = 0; k < kWriterKeys; ++k) {
        const std::string p =
            "c/w" + std::to_string(r) + "/x" + std::to_string(k);
        const auto got = node->resolve(p);
        ASSERT_TRUE(got.has_value()) << p;
        EXPECT_EQ(got->writer, static_cast<std::uint32_t>(r)) << p;
      }
    }
    EXPECT_GT(resolved.load(), 0u);
    comm.barrier();
    inst.stop();
  });
}

}  // namespace
}  // namespace fanstore
