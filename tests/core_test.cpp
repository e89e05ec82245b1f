// Core FanStore tests: backends, daemon protocol, and the full multi-rank
// open/read/close + write paths through FanStoreFs. The metadata store's
// own tests are in cluster_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "compress/registry.hpp"
#include "core/checkpoint.hpp"
#include "core/instance.hpp"
#include "dlsim/datagen.hpp"
#include "fault/injector.hpp"
#include "posixfs/mem_vfs.hpp"
#include "prep/prepare.hpp"
#include "simnet/codec_speed.hpp"
#include "tests/test_data.hpp"
#include "util/crc32.hpp"

namespace fanstore::core {
namespace {

using posixfs::OpenMode;

format::FileStat regular_stat(std::size_t size, int owner = 0) {
  format::FileStat s;
  s.size = size;
  s.type = format::FileType::kRegular;
  s.owner_rank = static_cast<std::uint32_t>(owner);
  return s;
}

TEST(BackendTest, RamBackendPutGet) {
  RamBackend be;
  be.put("a", Blob{7, Bytes{1, 2, 3}});
  EXPECT_TRUE(be.contains("a"));
  EXPECT_FALSE(be.contains("b"));
  const auto got = be.get("a");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->compressor, 7);
  EXPECT_EQ(got->data, (Bytes{1, 2, 3}));
  EXPECT_EQ(be.bytes_used(), 3u);
  EXPECT_EQ(be.object_count(), 1u);
}

TEST(BackendTest, VfsBackendStoresOnLocalFs) {
  posixfs::MemVfs ssd;
  VfsBackend be(&ssd, ".fanstore");
  be.put("dir/file", Blob{42, Bytes{9, 8, 7, 6}});
  EXPECT_TRUE(be.contains("dir/file"));
  const auto got = be.get("dir/file");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->compressor, 42);
  EXPECT_EQ(got->data, (Bytes{9, 8, 7, 6}));
  // The object lives as a real file under the backend root.
  EXPECT_TRUE(ssd.slurp(".fanstore/dir/file").has_value());
  EXPECT_FALSE(be.get("missing").has_value());
}

// --- Multi-rank integration ------------------------------------------------

// Builds a partition of `n` generated files with the given codec.
Bytes make_partition(const std::vector<std::pair<std::string, Bytes>>& files,
                     const char* codec_name) {
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name(codec_name);
  format::PartitionWriter w;
  for (const auto& [path, data] : files) {
    w.add(format::make_record(path, *codec, reg.id_of(*codec), as_view(data)));
  }
  return w.serialize();
}

TEST(FanStoreIntegrationTest, LocalAndRemoteReads) {
  // Rank 0 owns f0, rank 1 owns f1; each reads both (one local, one remote).
  const Bytes d0 = testdata::text_like(20000, 100);
  const Bytes d1 = testdata::runs_and_noise(30000, 101);
  mpi::run_world(2, [&](mpi::Comm& comm) {
    Instance::Options opt;
    Instance inst(comm, opt);
    if (comm.rank() == 0) {
      inst.load_partition_blob(as_view(make_partition({{"data/f0", d0}}, "lz4hc")), 0);
    } else {
      inst.load_partition_blob(as_view(make_partition({{"data/f1", d1}}, "lzma")), 1);
    }
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    auto& fs = inst.fs();
    const auto got0 = posixfs::read_file(fs, "data/f0");
    const auto got1 = posixfs::read_file(fs, "data/f1");
    ASSERT_TRUE(got0.has_value());
    ASSERT_TRUE(got1.has_value());
    EXPECT_EQ(*got0, d0);
    EXPECT_EQ(*got1, d1);

    const auto stats = fs.metrics().snapshot();
    EXPECT_EQ(stats.counter("fs.remote_fetches"), 1u);  // exactly one was remote
    EXPECT_EQ(stats.counter("fs.local_misses"), 1u);

    comm.barrier();  // both done before daemons stop
    inst.stop();
  });
}

TEST(FanStoreIntegrationTest, MetadataFullyReplicatedAfterExchange) {
  mpi::run_world(4, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    std::vector<std::pair<std::string, Bytes>> files;
    files.emplace_back("d/r" + std::to_string(comm.rank()),
                       testdata::random_bytes(100, static_cast<std::uint64_t>(comm.rank())));
    inst.load_partition_blob(as_view(make_partition(files, "store")),
                             static_cast<std::uint32_t>(comm.rank()));
    inst.exchange_metadata();
    EXPECT_EQ(inst.metadata().file_count(), 4u);
    // stat() of every file works without touching any other rank.
    for (int r = 0; r < 4; ++r) {
      format::FileStat st;
      EXPECT_EQ(inst.fs().stat("d/r" + std::to_string(r), &st), 0);
      EXPECT_EQ(st.owner_rank, static_cast<std::uint32_t>(r));
    }
    // readdir shows the global namespace.
    const int h = inst.fs().opendir("d");
    int count = 0;
    while (inst.fs().readdir(h)) ++count;
    inst.fs().closedir(h);
    EXPECT_EQ(count, 4);
  });
}

TEST(FanStoreIntegrationTest, FullReplicationAnswersEverythingLocally) {
  // The default config is full replication (DESIGN.md §13): every rank
  // owns every shard, so after the push exchange every rank's canonical
  // namespace (the concatenation of serialize_shard() over all shards,
  // each sorted) is the union of the loaded partitions and identical on
  // all ranks. stat, opendir/readdir, the write-open EEXIST check and
  // enumeration then answer from the local store: no rank sends a lookup
  // RPC and none serves one.
  constexpr int kRanks = 3;
  constexpr int kFiles = 3;
  const auto path_of = [](int rank, int i) {
    return "full/r" + std::to_string(rank) + "/f" + std::to_string(i);
  };
  std::vector<std::string> all;
  for (int r = 0; r < kRanks; ++r) {
    for (int i = 0; i < kFiles; ++i) all.push_back(path_of(r, i));
  }
  std::sort(all.begin(), all.end());
  std::vector<Bytes> canonical(kRanks);

  mpi::run_world(kRanks, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    std::vector<std::pair<std::string, Bytes>> files;
    for (int i = 0; i < kFiles; ++i) {
      files.emplace_back(path_of(comm.rank(), i),
                         testdata::random_bytes(64 + static_cast<std::size_t>(i),
                                                static_cast<std::uint64_t>(comm.rank() * 10 + i)));
    }
    inst.load_partition_blob(as_view(make_partition(files, "store")),
                             static_cast<std::uint32_t>(comm.rank()));
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    auto* node = inst.cluster_node();
    EXPECT_FALSE(node->sharded());
    for (std::uint32_t s = 0; s < node->nshards(); ++s) {
      EXPECT_TRUE(node->owns_shard(s)) << "shard " << s;
    }
    Bytes& mine = canonical[static_cast<std::size_t>(comm.rank())];
    for (std::uint32_t s = 0; s < node->nshards(); ++s) {
      const Bytes shard = inst.metadata().serialize_shard(s, node->nshards());
      mine.insert(mine.end(), shard.begin(), shard.end());
    }
    EXPECT_EQ(inst.metadata().all_paths(), all);

    auto& fs = inst.fs();
    for (const auto& p : all) {
      format::FileStat st;
      EXPECT_EQ(fs.stat(p, &st), 0) << p;
    }
    for (const std::string dir : {"", "full", "full/r0", "full/r1", "full/r2"}) {
      const int h = fs.opendir(dir);
      ASSERT_GE(h, 0) << dir;
      int n = 0;
      while (fs.readdir(h)) ++n;
      fs.closedir(h);
      EXPECT_EQ(n, dir.empty() ? 1 : dir == "full" ? kRanks : kFiles) << dir;
    }
    EXPECT_EQ(inst.dataset_paths(), all);
    comm.barrier();  // no rank writes before every rank has listed

    EXPECT_EQ(fs.open(all.front(), OpenMode::kWrite), -EEXIST);
    const std::string out = "full/out/r" + std::to_string(comm.rank());
    const int fd = fs.open(out, OpenMode::kWrite);  // the existence check misses
    ASSERT_GE(fd, 0);
    ASSERT_EQ(fs.close(fd), 0);
    EXPECT_EQ(fs.open(out, OpenMode::kWrite), -EEXIST);

    comm.barrier();  // every rank's calls are done before reading counters
    EXPECT_EQ(inst.metrics().counter("cluster.lookups_remote").value(), 0u);
    EXPECT_EQ(inst.metrics().counter("cluster.meta_served").value(), 0u);
    comm.barrier();
    inst.stop();
  });
  for (int r = 1; r < kRanks; ++r) {
    EXPECT_EQ(canonical[static_cast<std::size_t>(r)], canonical[0]) << "rank " << r;
  }
}

TEST(FanStoreIntegrationTest, ShardedColdChunkedOpenResolvesOnce) {
  // Sharded metadata (rf = 1 of 2): a cold open of a chunked file whose
  // shard lives on the other rank resolves its metadata once — the eager
  // decode checks the whole-file crc against the stat open() resolved —
  // and a later stat() of the same dataset file is a lookup-cache hit.
  constexpr int kRanks = 2;
  constexpr int kFiles = 8;
  const auto data_of = [](int rank, int i) {
    return testdata::text_like(100000 + static_cast<std::size_t>(i),
                               static_cast<std::uint64_t>(rank * 100 + i));
  };
  const auto path_of = [](int rank, int i) {
    return "sh/r" + std::to_string(rank) + "/f" + std::to_string(i);
  };
  mpi::run_world(kRanks, [&](mpi::Comm& comm) {
    Instance::Options opt;
    opt.cluster.replication_factor = 1;
    Instance inst(comm, std::move(opt));
    std::vector<std::pair<std::string, Bytes>> files;
    for (int i = 0; i < kFiles; ++i) {
      files.emplace_back(path_of(comm.rank(), i), data_of(comm.rank(), i));
    }
    inst.load_partition_blob(as_view(make_partition(files, "chunked-64k+lz4")),
                             static_cast<std::uint32_t>(comm.rank()));
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    const int peer = 1 - comm.rank();
    int checked = 0;
    obs::Counter& rpcs = inst.metrics().counter("cluster.lookups_remote");
    obs::Counter& hits = inst.metrics().counter("cluster.lookup_cache_hits");
    for (int i = 0; i < kFiles; ++i) {
      const std::string p = path_of(peer, i);
      if (inst.metadata().lookup(p).has_value()) continue;  // shard is local
      const std::uint64_t rpcs0 = rpcs.value();
      const std::uint64_t hits0 = hits.value();
      const auto got = posixfs::read_file(inst.fs(), p);
      ASSERT_TRUE(got.has_value()) << p;
      EXPECT_EQ(*got, data_of(peer, i)) << p;
      EXPECT_EQ(rpcs.value() - rpcs0, 1u) << p;
      EXPECT_EQ(hits.value() - hits0, 0u) << p;
      format::FileStat st;
      ASSERT_EQ(inst.fs().stat(p, &st), 0) << p;
      EXPECT_EQ(st.size, got->size());
      EXPECT_EQ(rpcs.value() - rpcs0, 1u) << p;
      EXPECT_EQ(hits.value() - hits0, 1u) << p;
      ++checked;
    }
    EXPECT_GT(checked, 0);
    comm.barrier();
    inst.stop();
  });
}

TEST(FanStoreIntegrationTest, CacheHitOnSecondOpen) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    const Bytes data = testdata::text_like(5000, 3);
    inst.load_partition_blob(as_view(make_partition({{"f", data}}, "lz4hc")), 0);
    inst.exchange_metadata();
    (void)posixfs::read_file(inst.fs(), "f");
    (void)posixfs::read_file(inst.fs(), "f");
    EXPECT_EQ(inst.fs().metrics().counter("cache.hits").value(), 1u);
    EXPECT_EQ(inst.fs().metrics().counter("fs.local_misses").value(), 1u);
    // No tier, eager open: the one-chunk frame is decoded before admission,
    // so the entry is charged its plain bytes only, never frame + plain.
    EXPECT_EQ(inst.fs().tiers().plain().bytes_used(), data.size());
  });
}

// A partition whose records' metadata crc is off by one bit.
Bytes make_partition_with_bad_crc(
    const std::vector<std::pair<std::string, Bytes>>& files,
    const std::string& codec_name) {
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name(codec_name);
  format::PartitionWriter w;
  for (const auto& [path, data] : files) {
    auto rec = format::make_record(path, *codec, reg.id_of(*codec), as_view(data));
    rec.stat.crc ^= 1u;
    w.add(std::move(rec));
  }
  return w.serialize();
}

TEST(FanStoreIntegrationTest, WholeFileCrcMismatchFailsEveryOpen) {
  // The chunked whole-file crc runs after the last chunk decodes. A file
  // that fails it must fail every later open too, not be served from the
  // plain cache as if it had been checked.
  const Bytes data = testdata::text_like(200000, 41);
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    inst.load_partition_blob(
        as_view(make_partition_with_bad_crc({{"chunked", data}}, "chunked-64k+lz4")),
        0);
    inst.load_partition_blob(
        as_view(make_partition_with_bad_crc({{"flat", data}}, "lz4")), 1);
    inst.exchange_metadata();
    for (const char* path : {"chunked", "flat"}) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        EXPECT_FALSE(posixfs::read_file(inst.fs(), path).has_value())
            << path << " attempt " << attempt;
        EXPECT_FALSE(inst.fs().tiers().contains(path)) << path;
      }
    }
  });
}

TEST(FanStoreIntegrationTest, WholeFileCrcMismatchFailsEveryMaterialize) {
  // Lazy opens: materialize(fd) runs the whole-file check. Every fd must
  // see the failure, including one opened before it and still holding the
  // entry, and the entry leaves the cache once the last fd closes.
  const Bytes data = testdata::text_like(200000, 42);
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance::Options opt;
    opt.fs.lazy_chunked_open = true;
    Instance inst(comm, opt);
    inst.load_partition_blob(
        as_view(make_partition_with_bad_crc({{"c", data}}, "chunked-64k+lz4")), 0);
    inst.exchange_metadata();
    auto& fs = inst.fs();
    for (int attempt = 0; attempt < 2; ++attempt) {
      const int a = fs.open("c", posixfs::OpenMode::kRead);
      const int b = fs.open("c", posixfs::OpenMode::kRead);
      ASSERT_GE(a, 0);
      ASSERT_GE(b, 0);
      EXPECT_EQ(fs.materialize(a), -EIO) << attempt;
      EXPECT_EQ(fs.materialize(b), -EIO) << attempt;
      EXPECT_EQ(fs.materialize(a), -EIO) << attempt;
      fs.close(a);
      EXPECT_TRUE(fs.tiers().contains("c"));  // b still holds it
      fs.close(b);
      EXPECT_FALSE(fs.tiers().contains("c"));
      EXPECT_FALSE(fs.warm_file("c"));
    }
  });
}

TEST(FanStoreIntegrationTest, WholeFileCrcMismatchFailsTheLazyReadThatCompletesIt) {
  // Lazy opens decode chunk by chunk on read() and pread(). The read that
  // decodes the last missing chunk runs the whole-file check: it returns
  // -EIO and invalidates the entry, so the next open loads it again.
  const Bytes data = testdata::text_like(200000, 43);  // 4 chunks of 64 KiB
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance::Options opt;
    opt.fs.lazy_chunked_open = true;
    Instance inst(comm, opt);
    inst.load_partition_blob(
        as_view(make_partition_with_bad_crc({{"c", data}}, "chunked-64k+lz4")), 0);
    inst.exchange_metadata();
    auto& fs = inst.fs();
    const auto misses = [&] { return inst.metrics().counter("cache.misses").value(); };
    for (std::uint64_t attempt = 0; attempt < 2; ++attempt) {
      const int fd = fs.open("c", OpenMode::kRead);
      ASSERT_GE(fd, 0);
      EXPECT_EQ(misses(), attempt + 1) << "the failed entry was not loaded again";
      Bytes buf(data.size());
      ASSERT_EQ(fs.pread(fd, MutByteView(buf.data(), 4096), 0), 4096);
      if (attempt == 0) {
        // Sequential reads: the one that reaches the last chunk fails.
        std::size_t total = 0;
        std::int64_t r = 0;
        while ((r = fs.read(fd, MutByteView(buf.data(), 64u << 10))) > 0) {
          total += static_cast<std::size_t>(r);
        }
        EXPECT_EQ(r, -EIO);
        EXPECT_LT(total, data.size());
      } else {
        EXPECT_EQ(fs.pread(fd, MutByteView(buf.data(), buf.size()), 0), -EIO);
      }
      fs.close(fd);
      EXPECT_FALSE(fs.tiers().contains("c"));
    }
  });
}

TEST(FanStoreIntegrationTest, WriteOnceModel) {
  mpi::run_world(2, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();
    auto& fs = inst.fs();
    if (comm.rank() == 0) {
      // Write a checkpoint, then verify write-once semantics.
      const Bytes ckpt = testdata::random_bytes(4096, 5);
      ASSERT_EQ(posixfs::write_file(fs, "out/ckpt_1.h5", as_view(ckpt)), 0);
      EXPECT_EQ(fs.open("out/ckpt_1.h5", OpenMode::kWrite), -EEXIST);
      // Reading our own output back works (local backend).
      EXPECT_EQ(*posixfs::read_file(fs, "out/ckpt_1.h5"), ckpt);
    }
    comm.barrier();
    if (comm.rank() == 1) {
      // Under full replication the write metadata goes to every rank. The
      // forward is asynchronous: poll until the daemon applies it.
      format::FileStat st;
      int rc = -ENOENT;
      for (int tries = 0; tries < 200 && rc != 0; ++tries) {
        rc = fs.stat("out/ckpt_1.h5", &st);
        if (rc != 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      EXPECT_EQ(rc, 0);
      EXPECT_EQ(st.size, 4096u);
      EXPECT_EQ(st.owner_rank, 0u);
    }
    comm.barrier();
    inst.stop();
  });
}

TEST(FanStoreIntegrationTest, WritePathLongerThanTheMetadataLimitIsRefused) {
  // Written-file metadata crosses the wire with a u16 path length, so a
  // longer path would reach every peer truncated. open() refuses it; a
  // path exactly at the limit replicates intact.
  const std::string too_long = "out/" + std::string(70000, 'a');
  const std::string at_limit = "out/" + std::string(cluster::kMaxPathBytes - 4, 'b');
  mpi::run_world(2, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();
    auto& fs = inst.fs();
    if (comm.rank() == 0) {
      const int fd = fs.open(too_long, OpenMode::kWrite);
      EXPECT_EQ(fd, -ENAMETOOLONG);
      if (fd >= 0) fs.close(fd);
    }
    comm.barrier();
    if (comm.rank() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      EXPECT_EQ(inst.metadata().file_count(), 0u);
    }
    comm.barrier();
    if (comm.rank() == 0) {
      ASSERT_EQ(posixfs::write_file(fs, at_limit, as_view(Bytes(7, 1))), 0);
    } else {
      format::FileStat st;
      int rc = -ENOENT;
      for (int tries = 0; tries < 200 && rc != 0; ++tries) {
        rc = fs.stat(at_limit, &st);
        if (rc != 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      EXPECT_EQ(rc, 0);
      EXPECT_EQ(st.size, 7u);
      EXPECT_EQ(inst.metadata().all_paths(), std::vector<std::string>{at_limit});
    }
    comm.barrier();
    inst.stop();
  });
}

TEST(FanStoreIntegrationTest, ConcurrentWritersRejected) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    auto& fs = inst.fs();
    const int fd1 = fs.open("log.txt", OpenMode::kWrite);
    ASSERT_GE(fd1, 0);
    EXPECT_EQ(fs.open("log.txt", OpenMode::kWrite), -EBUSY);
    fs.write(fd1, as_view(Bytes{1}));
    fs.close(fd1);
    EXPECT_EQ(fs.open("log.txt", OpenMode::kWrite), -EEXIST);
  });
}

TEST(FanStoreIntegrationTest, ErrorsArePosixStyle) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    const Bytes data = testdata::random_bytes(100, 4);
    inst.load_partition_blob(as_view(make_partition({{"dir/f", data}}, "store")), 0);
    inst.exchange_metadata();
    auto& fs = inst.fs();
    EXPECT_EQ(fs.open("missing", OpenMode::kRead), -ENOENT);
    EXPECT_EQ(fs.open("dir", OpenMode::kRead), -EISDIR);
    EXPECT_EQ(fs.close(12345), -EBADF);
    EXPECT_EQ(fs.opendir("nothere"), -ENOENT);
    Bytes buf(4);
    EXPECT_EQ(fs.read(999, MutByteView{buf.data(), 4}), -EBADF);
  });
}

TEST(FanStoreIntegrationTest, NeighbourReadRequiresRemoteFetch) {
  mpi::run_world(4, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    std::vector<std::pair<std::string, Bytes>> files;
    files.emplace_back("p/r" + std::to_string(comm.rank()),
                       testdata::text_like(3000, static_cast<std::uint64_t>(comm.rank())));
    const Bytes part = make_partition(files, "lz4");
    inst.load_partition_blob(as_view(part), static_cast<std::uint32_t>(comm.rank()));
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();
    // Neighbour's file requires a remote fetch (no replication here).
    const int neighbour = (comm.rank() + 1) % 4;
    (void)posixfs::read_file(inst.fs(), "p/r" + std::to_string(neighbour));
    EXPECT_EQ(inst.fs().metrics().counter("fs.remote_fetches").value(), 1u);
    comm.barrier();
    inst.stop();
  });
}

TEST(FanStoreIntegrationTest, FullSharedFsFlowWithRingReplication) {
  // End-to-end: prep packs a dataset into a shared MemVfs; 4 ranks load
  // their partitions, replicate one ring hop, exchange metadata, and read
  // the whole dataset. Replication must eliminate fetches for the
  // predecessor's partition.
  posixfs::MemVfs shared;
  std::vector<std::string> paths;
  {
    posixfs::MemVfs src;
    paths = dlsim::materialize_dataset(src, "ds", dlsim::DatasetKind::kLanguageTxt, 16);
    prep::PrepOptions opt;
    opt.num_partitions = 4;
    opt.compressor = "lz4hc";
    opt.threads = 2;
    prep::prepare_dataset(src, "ds", shared, "packed", opt);
  }
  mpi::run_world(4, [&](mpi::Comm& comm) {
    const auto manifest = prep::load_manifest(shared, "packed");
    ASSERT_EQ(manifest.partitions.size(), 4u);
    Instance inst(comm, {});
    inst.load_from_shared(shared, manifest.partition_paths());
    inst.replicate_ring(1);
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    EXPECT_EQ(inst.metadata().file_count(), 16u);
    for (const auto& p : paths) {
      const auto got = posixfs::read_file(inst.fs(), p);
      ASSERT_TRUE(got.has_value()) << p;
      EXPECT_EQ(*got, dlsim::generate_file(dlsim::DatasetKind::kLanguageTxt,
                                           // index from name: ds/dXXX/Language_IIIIII.txt
                                           std::stoull(p.substr(p.size() - 10, 6))));
    }
    // 16 files / 4 partitions: own (4) + predecessor's replicated (4) are
    // local; the other 8 are remote fetches.
    EXPECT_EQ(inst.fs().metrics().counter("fs.remote_fetches").value(), 8u);
    comm.barrier();
    inst.stop();
  });
}

TEST(DaemonProtocolTest, ExchangeAfterStartIsRefused) {
  // The daemon's loop takes shard pushes, so an exchange behind it would
  // wait forever for pushes the loop already took.
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    inst.start_daemon();
    EXPECT_THROW(inst.exchange_metadata(), std::logic_error);
    inst.stop();
  });
}

TEST(DaemonProtocolTest, FetchNotFoundAndMalformed) {
  mpi::run_world(2, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    inst.start_daemon();
    comm.barrier();
    if (comm.rank() == 0) {
      mpi::Caller caller(comm, 5000);
      const auto status_of = [](const mpi::Reply& r) {
        EXPECT_TRUE(r.ok());
        return r.body().empty() ? 0xFF : r.body()[0];
      };
      // Not found.
      EXPECT_EQ(status_of(caller.call(1, mpi::kTagFetch, as_view(std::string("ghost")),
                                      mpi::Wait{})),
                kFetchNotFound);
      // Malformed (empty path).
      EXPECT_EQ(status_of(caller.call(1, mpi::kTagFetch, {}, mpi::Wait{})),
                kFetchMalformed);
      // A request that fails its crc is answered malformed (retryable) at
      // the reply tag it claims, never "not found".
      Bytes flipped = mpi::envelope(6000);
      const Bytes ghost = to_bytes("ghost");
      flipped.insert(flipped.end(), ghost.begin(), ghost.end());
      flipped = mpi::seal(std::move(flipped));
      flipped[5] ^= 0x10;  // a bit of the path
      comm.send(1, mpi::kTagFetch, flipped);
      const mpi::Message answer = comm.recv(1, 6000);
      const auto sealed = mpi::unseal(as_view(answer.payload));
      ASSERT_TRUE(sealed.has_value());
      EXPECT_EQ(sealed->reply_tag, 6000u);
      EXPECT_EQ(sealed->body[0], kFetchMalformed);
      // Garbage (shorter than an envelope) is dropped without killing the
      // daemon, and so is a write-meta forward that fails its crc.
      comm.send(1, mpi::kTagFetch, Bytes{1});
      comm.send(1, mpi::kTagWriteMeta, Bytes{1});
      // So is write metadata without its [u64 version][u32 writer] suffix,
      // sealed correctly.
      Bytes unversioned = encode_write_meta("unversioned", {regular_stat(7), 1, 0});
      unversioned.resize(unversioned.size() - 12);
      comm.send(1, mpi::kTagWriteMeta, mpi::seal(std::move(unversioned)));
      // Daemon still alive: valid request answered.
      EXPECT_EQ(status_of(caller.call(1, mpi::kTagFetch, as_view(std::string("ghost")),
                                      mpi::Wait{})),
                kFetchNotFound);
    }
    comm.barrier();  // the daemon handled rank 0's messages in order
    if (comm.rank() == 1) {
      EXPECT_FALSE(inst.metadata().lookup("unversioned").has_value());
      // The flipped fetch request, the short one and the short write-meta.
      EXPECT_EQ(inst.metrics().counter("daemon.crc_rejects").value(), 3u);
      EXPECT_EQ(inst.metrics().counter("daemon.meta_forwards").value(), 0u);
    }
    inst.stop();
  });
}

TEST(DaemonProtocolTest, StopIsIdempotent) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    inst.start_daemon();
    inst.stop();
    inst.stop();
    SUCCEED();
  });
}

TEST(FanStoreIntegrationTest, DiskBackendWorks) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    posixfs::MemVfs ssd;
    Instance::Options opt;
    opt.local_fs = &ssd;
    Instance inst(comm, opt);
    const Bytes data = testdata::text_like(10000, 8);
    inst.load_partition_blob(as_view(make_partition({{"f", data}}, "deflate")), 0);
    inst.exchange_metadata();
    EXPECT_EQ(*posixfs::read_file(inst.fs(), "f"), data);
    EXPECT_GT(ssd.file_count(), 0u);  // compressed object landed on "SSD"
  });
}


TEST(FanStoreIntegrationTest, CompressedWritePath) {
  // Output files can be compressed too (write_compressor option): the
  // checkpoint round-trips and the backend holds fewer bytes than raw.
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance::Options opt;
    opt.fs.write_compressor = compress::Registry::instance().id_by_name("lz4hc");
    Instance inst(comm, opt);
    const Bytes ckpt = testdata::text_like(50000, 42);
    ASSERT_EQ(posixfs::write_file(inst.fs(), "out/model.bin", as_view(ckpt)), 0);
    EXPECT_EQ(*posixfs::read_file(inst.fs(), "out/model.bin"), ckpt);
    EXPECT_LT(inst.backend().bytes_used(), ckpt.size() / 2);
  });
}

TEST(FanStoreIntegrationTest, CheckpointManagerOverFanStore) {
  // CheckpointManager writing through FanStoreFs with a MemVfs "shared FS"
  // mirror: the full §V-E flow on the real store.
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    posixfs::MemVfs shared;
    CheckpointManager mgr(inst.fs(), &shared, "ckpt");
    ASSERT_EQ(mgr.save(3, as_view(Bytes(1000, 0x33))), 0);
    const auto latest = mgr.latest();
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(latest->epoch, 3);
    // The mirror really landed on the shared FS.
    EXPECT_TRUE(shared.slurp("ckpt/ckpt_000003.bin").has_value());
  });
}


TEST(FanStoreIntegrationTest, UnframedCompressedBlobIsRefused) {
  // Every compressed object is a chunked frame. A blob stored under a flat
  // codec id is refused like an unknown codec: -EIO on every open, nothing
  // cached. A store (id 0) blob still reads back as plain bytes.
  const Bytes data = testdata::text_like(5000, 43);
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    inst.load_partition_blob(
        as_view(make_partition({{"stored", data}, {"flat", data}}, "store")), 0);
    inst.exchange_metadata();
    const auto& reg = compress::Registry::instance();
    const auto lz4 = reg.id_by_name("lz4");
    inst.backend().put("flat", Blob{lz4, reg.by_id(lz4)->compress(as_view(data))});
    for (int attempt = 0; attempt < 2; ++attempt) {
      EXPECT_EQ(inst.fs().open("flat", posixfs::OpenMode::kRead), -EIO)
          << "attempt " << attempt;
      EXPECT_FALSE(inst.fs().tiers().contains("flat")) << "attempt " << attempt;
    }
    const auto got = posixfs::read_file(inst.fs(), "stored");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, data);
  });
}

// Virtual-clock proof that chunked decompress cost is charged exactly once
// per chunk, wherever the chunk happens to materialize — the PR-3-era bug
// was a prefetch-warmed file being charged again at open(). With every
// storage/network cost zeroed the clock *is* the chunk-decode counter, in
// units of one chunk's decode time from the committed codec-speed table.
// The clock truncates each charge to whole nanoseconds, hence kTick.
TEST(FanStoreIntegrationTest, ChunkedDecodeChargedOncePerChunk) {
  constexpr std::size_t kChunk = std::size_t{64} << 10;
  const Bytes data = testdata::runs_and_noise(std::size_t{1} << 20, 31);
  mpi::run_world(1, [&](mpi::Comm& comm) {
    simnet::VirtualClock clock;
    Instance::Options opt;
    opt.fs.cost.enabled = true;
    opt.fs.clock = &clock;
    opt.fs.lazy_chunked_open = true;
    opt.fs.decode_threads = 4;
    opt.fs.cost.read_path.per_op_s = 0;
    opt.fs.cost.read_path.metadata_op_s = 0;
    opt.fs.cost.read_path.bandwidth_bps = 1e30;  // data movement is free
    Instance inst(comm, opt);
    inst.load_partition_blob(
        as_view(make_partition({{"big", data}}, "chunked-64k+lz4hc")), 0);
    inst.exchange_metadata();
    const auto inner =
        compress::Registry::instance().id_by_name("lz4hc");
    const double chunk_s = simnet::decompress_seconds(inner, kChunk);
    constexpr double kTick = 3e-9;

    auto& fs = inst.fs();
    const int fd = fs.open("big", posixfs::OpenMode::kRead);
    ASSERT_GE(fd, 0);
    EXPECT_DOUBLE_EQ(clock.now_sec(), 0.0);  // lazy open decodes nothing

    // A window straddling one boundary: two chunks, decoded serially.
    Bytes buf(kChunk);
    ASSERT_EQ(fs.pread(fd, MutByteView(buf.data(), buf.size()), kChunk * 3 + 100),
              static_cast<std::int64_t>(buf.size()));
    EXPECT_NEAR(clock.now_sec(), 2 * chunk_s, kTick);
    const double two_chunks = clock.now_sec();

    // Same window again: chunks already materialized, nothing charged.
    ASSERT_EQ(fs.pread(fd, MutByteView(buf.data(), buf.size()), kChunk * 3 + 100),
              static_cast<std::int64_t>(buf.size()));
    EXPECT_DOUBLE_EQ(clock.now_sec(), two_chunks);

    // Materializing the remaining 14 chunks on 4 threads costs the parallel
    // makespan: ceil(14/4) = 4 chunk-batches, not 14 serial chunk times.
    ASSERT_EQ(fs.materialize(fd), 0);
    EXPECT_NEAR(clock.now_sec(), 6 * chunk_s, kTick);
    const double all_chunks = clock.now_sec();

    // Fully warm: open/read/close never touches the decompress budget again
    // (the prefetcher-warmed double-charge regression).
    fs.close(fd);
    const auto got = posixfs::read_file(fs, "big");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, data);
    EXPECT_DOUBLE_EQ(clock.now_sec(), all_chunks);
  });
}

TEST(FanStoreIntegrationTest, PrefetchWarmedChunkedFileChargedOnce) {
  constexpr std::size_t kChunk = std::size_t{64} << 10;
  const Bytes data = testdata::runs_and_noise(std::size_t{1} << 19, 32);  // 8 chunks
  mpi::run_world(1, [&](mpi::Comm& comm) {
    simnet::VirtualClock clock;
    Instance::Options opt;
    opt.fs.cost.enabled = true;
    opt.fs.clock = &clock;
    opt.fs.decode_threads = 2;
    opt.fs.cost.read_path.per_op_s = 0;
    opt.fs.cost.read_path.metadata_op_s = 0;
    opt.fs.cost.read_path.bandwidth_bps = 1e30;
    Instance inst(comm, opt);
    inst.load_partition_blob(
        as_view(make_partition({{"w", data}}, "chunked-64k+lz4hc")), 0);
    inst.exchange_metadata();
    const auto inner = compress::Registry::instance().id_by_name("lz4hc");
    const double chunk_s = simnet::decompress_seconds(inner, kChunk);
    constexpr double kTick = 1e-9;  // the clock truncates to whole ns

    // Warm (the prefetcher's path): 8 chunks on 2 threads = 4 batches.
    ASSERT_TRUE(inst.fs().warm_file("w"));
    EXPECT_NEAR(clock.now_sec(), 4 * chunk_s, kTick);
    const double warmed = clock.now_sec();

    // The training thread's open + read must charge zero extra decode time.
    const auto got = posixfs::read_file(inst.fs(), "w");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, data);
    EXPECT_DOUBLE_EQ(clock.now_sec(), warmed);
  });
}

TEST(FanStoreIntegrationTest, StatsReportMentionsActivity) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    const Bytes data = testdata::text_like(2000, 2);
    inst.load_partition_blob(as_view(make_partition({{"f", data}}, "lz4")), 0);
    inst.exchange_metadata();
    (void)posixfs::read_file(inst.fs(), "f");
    const std::string report = inst.stats_report();
    EXPECT_NE(report.find("opens=1"), std::string::npos) << report;
    EXPECT_NE(report.find("local=1"), std::string::npos) << report;
    EXPECT_NE(report.find("backend 1 objs"), std::string::npos) << report;
  });
}

// --- One copy of a blob's bytes ----------------------------------------

TEST(SharedBytesTest, RamBackendGetsShareOneBuffer) {
  RamBackend be;
  be.put("a", Blob{0, Bytes{1, 2, 3}});
  const auto x = be.get("a");
  const auto y = be.get("a");
  ASSERT_TRUE(x.has_value() && y.has_value());
  EXPECT_EQ(x->data.data(), y->data.data());
  EXPECT_EQ(x->data, (Bytes{1, 2, 3}));
}

TEST(SharedBytesTest, ReadingBackAWrittenFileAddsNoSecondBuffer) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    inst.exchange_metadata();
    const Bytes data = testdata::random_bytes(4096, 21);
    ASSERT_EQ(posixfs::write_file(inst.fs(), "out/w.bin", as_view(data)), 0);
    const auto got = posixfs::read_file(inst.fs(), "out/w.bin");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, data);
    const auto blob = inst.backend().get("out/w.bin");
    ASSERT_TRUE(blob.has_value());
    ASSERT_EQ(blob->compressor, 0);  // outputs are stored
    auto entry = inst.fs().tiers().try_acquire("out/w.bin");
    ASSERT_NE(entry, nullptr);
    // The cache entry aliases the backend's buffer, and is charged as if
    // it held its own copy.
    EXPECT_EQ(entry->plain().data(), blob->data.data());
    EXPECT_EQ(entry->charge_bytes(), data.size());
    entry.reset();
    inst.fs().tiers().release("out/w.bin");
  });
}

TEST(SharedBytesTest, LazyChunkedEntryKeepsTheBackendsFrame) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance::Options opt;
    opt.fs.lazy_chunked_open = true;
    Instance inst(comm, opt);
    const Bytes data = testdata::text_like(50000, 22);
    inst.load_partition_blob(as_view(make_partition({{"f", data}}, "chunked-16k+lz4")), 0);
    inst.exchange_metadata();
    const int fd = inst.fs().open("f", OpenMode::kRead);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(inst.fs().materialize(fd), 0);
    const auto blob = inst.backend().get("f");
    ASSERT_TRUE(blob.has_value());
    auto entry = inst.fs().tiers().try_acquire("f");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->compressed_bytes().data(), blob->data.data());
    EXPECT_EQ(entry->charge_bytes(), blob->data.size() + data.size());
    EXPECT_EQ(entry->plain(), data);
    entry.reset();
    inst.fs().tiers().release("f");
    inst.fs().close(fd);
  });
}

TEST(SharedBytesTest, InjectedCorruptionNeverTouchesTheSharedBlob) {
  fault::FaultPlan plan;
  fault::BackendRule torn;
  torn.corrupt_prob = 1.0;
  torn.max_faults = 1;  // the first get only
  plan.backends.push_back(torn);
  fault::FaultInjector injector(plan);
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance::Options opt;
    opt.fault = &injector;
    Instance inst(comm, opt);
    const Bytes data = testdata::text_like(3000, 23);
    inst.load_partition_blob(as_view(make_partition({{"f", data}}, "store")), 0);
    inst.exchange_metadata();
    CompressedBackend& inner =
        dynamic_cast<FaultInjectedBackend&>(inst.backend()).inner();
    const auto original = inner.get("f");
    ASSERT_TRUE(original.has_value());
    // The torn copy fails the stored-blob crc check...
    EXPECT_EQ(inst.fs().open("f", OpenMode::kRead), -EIO);
    EXPECT_EQ(injector.metrics().counter("fault.backend_corrupted").value(), 1u);
    // ...while the backend's own buffer is untouched and still shared.
    const auto after = inner.get("f");
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->data.data(), original->data.data());
    EXPECT_EQ(after->data, data);
    const auto again = posixfs::read_file(inst.fs(), "f");
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, data);
  });
}

TEST(FanStoreOptionsTest, NegativeTimeoutAndBadRetryAreRejected) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    {
      Instance::Options opt;
      opt.fs.fetch_timeout_ms = -1;
      EXPECT_THROW(Instance inst(comm, opt), std::invalid_argument);
    }
    {
      Instance::Options opt;
      opt.fs.failover_hops = -1;
      EXPECT_THROW(Instance inst(comm, opt), std::invalid_argument);
    }
    {
      Instance::Options opt;
      opt.fs.retry.max_attempts = 0;
      EXPECT_THROW(Instance inst(comm, opt), std::invalid_argument);
    }
    {
      // Rejected at construction: a write close with no codec would fail
      // and leave the path busy for every later writer.
      Instance::Options opt;
      opt.fs.write_compressor = 0xFFFF;
      EXPECT_THROW(Instance inst(comm, opt), std::invalid_argument);
    }
  });
}

TEST(FanStoreOptionsTest, ZeroTimeoutMeansWaitForever) {
  // fetch_timeout_ms == 0 is the explicit "no timeout" mode: the fetch
  // blocks until the daemon answers (no failover, no retry bookkeeping),
  // even when the answer takes far longer than any finite default.
  const Bytes data = testdata::text_like(3000, 3);
  mpi::run_world(2, [&](mpi::Comm& comm) {
    Instance::Options opt;
    opt.fs.fetch_timeout_ms = 0;
    Instance inst(comm, opt);
    if (comm.rank() == 1) {
      inst.load_partition_blob(as_view(make_partition({{"f", data}}, "lz4")), 0, 1);
    }
    inst.exchange_metadata();
    if (comm.rank() == 1) {
      // Start the owner's daemon only after a delay: a timed fetch with a
      // short window would have given up; the no-timeout fetch must wait.
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
      inst.start_daemon();
    }
    if (comm.rank() == 0) {
      const auto got = posixfs::read_file(inst.fs(), "f");
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, data);
      EXPECT_EQ(inst.metrics().counter("retry.timeouts").value(), 0u);
      EXPECT_EQ(inst.fs().metrics().counter("fs.failovers").value(), 0u);
    }
    comm.barrier();
    inst.stop();
  });
}

}  // namespace
}  // namespace fanstore::core
