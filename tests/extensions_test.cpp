// Tests for the extension features: the real async prefetcher (Fig. 5b)
// and the checkpoint manager with shared-FS mirroring (§V-E fault tolerance).
#include <gtest/gtest.h>

#include "compress/registry.hpp"
#include "core/checkpoint.hpp"
#include "core/instance.hpp"
#include "dlsim/datagen.hpp"
#include "dlsim/prefetcher.hpp"
#include "obs/metrics.hpp"
#include "posixfs/mem_vfs.hpp"
#include "tests/test_data.hpp"

namespace fanstore {
namespace {

// --- Prefetcher ---------------------------------------------------------

TEST(PrefetcherTest, WarmsTheCache) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    core::Instance inst(comm, {});
    const auto& reg = compress::Registry::instance();
    const auto* codec = reg.by_name("lz4hc");
    format::PartitionWriter w;
    std::vector<std::string> paths;
    for (int i = 0; i < 16; ++i) {
      const std::string p = "ds/f" + std::to_string(i);
      w.add(format::make_record(p, *codec, reg.id_of(*codec),
                                as_view(testdata::text_like(8000, i))));
      paths.push_back(p);
    }
    const Bytes blob = w.serialize();
    inst.load_partition_blob(as_view(blob), 0);
    inst.exchange_metadata();

    dlsim::Prefetcher prefetcher(inst.fs(), 4);
    prefetcher.prefetch(paths);
    prefetcher.wait();
    auto& m = inst.metrics();
    EXPECT_EQ(m.counter("prefetch.warmed").value(), 16u);
    EXPECT_EQ(m.counter("prefetch.failures").value(), 0u);

    // Every training-thread open is now a cache hit.
    const auto before = m.snapshot();
    for (const auto& p : paths) (void)posixfs::read_file(inst.fs(), p);
    const auto after = m.snapshot();
    EXPECT_EQ(after.counter("cache.hits") - before.counter("cache.hits"), 16u);
    EXPECT_EQ(after.counter("fs.local_misses"),
              before.counter("fs.local_misses"));
  });
}

TEST(PrefetcherTest, LeavesEntriesCachedButUnpinned) {
  // Warm-up must not leak pins: every prefetch open is paired with a close,
  // so `open_count` returns to zero and eviction still works afterwards.
  mpi::run_world(1, [&](mpi::Comm& comm) {
    core::Instance inst(comm, {});
    const auto& reg = compress::Registry::instance();
    const auto* codec = reg.by_name("lz4");
    format::PartitionWriter w;
    std::vector<std::string> paths;
    for (int i = 0; i < 12; ++i) {
      const std::string p = "ds/f" + std::to_string(i);
      w.add(format::make_record(p, *codec, reg.id_of(*codec),
                                as_view(testdata::random_bytes(4096, i))));
      paths.push_back(p);
    }
    const Bytes blob = w.serialize();
    inst.load_partition_blob(as_view(blob), 0);
    inst.exchange_metadata();

    dlsim::Prefetcher prefetcher(inst.fs(), 3);
    prefetcher.prefetch(paths);
    prefetcher.wait();
    EXPECT_EQ(inst.metrics().counter("prefetch.warmed").value(), 12u);
    auto& cache = inst.fs().tiers().plain();
    for (const auto& p : paths) {
      EXPECT_TRUE(cache.contains(p)) << p;
      EXPECT_EQ(cache.open_count(p), 0) << p;  // no refcount leak
    }
  });
}

TEST(PrefetcherTest, PipelinedRemoteWarmupStagesThenDecompresses) {
  // Two ranks: rank 1 prefetches rank 0's files. The fetch stage lands the
  // compressed blobs in rank 1's local backend (one remote fetch each);
  // the decompress stage then fills the cache, so training-thread opens
  // are pure hits with no further network traffic.
  mpi::run_world(2, [&](mpi::Comm& comm) {
    core::Instance inst(comm, {});
    const auto& reg = compress::Registry::instance();
    const auto* codec = reg.by_name("lz4hc");
    std::vector<std::string> paths;
    if (comm.rank() == 0) {
      format::PartitionWriter w;
      for (int i = 0; i < 8; ++i) {
        const std::string p = "ds/r0_" + std::to_string(i);
        w.add(format::make_record(p, *codec, reg.id_of(*codec),
                                  as_view(testdata::text_like(6000, i))));
      }
      const Bytes blob = w.serialize();
      inst.load_partition_blob(as_view(blob), 0);
    }
    for (int i = 0; i < 8; ++i) paths.push_back("ds/r0_" + std::to_string(i));
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    if (comm.rank() == 1) {
      dlsim::Prefetcher prefetcher(inst.fs(), 2, /*fetch_threads=*/2);
      prefetcher.prefetch(paths);
      prefetcher.wait();
      auto& m = inst.metrics();
      EXPECT_EQ(m.counter("prefetch.warmed").value(), 8u);
      EXPECT_EQ(m.counter("prefetch.failures").value(), 0u);
      const auto mid = m.snapshot();
      EXPECT_EQ(mid.counter("fs.remote_fetches"), 8u);  // one transfer each
      // The compressed bytes were staged locally by the fetch stage.
      EXPECT_EQ(inst.backend().object_count(), 8u);
      for (const auto& p : paths) {
        (void)posixfs::read_file(inst.fs(), p);
        EXPECT_EQ(inst.fs().tiers().plain().open_count(p), 0) << p;
      }
      const auto after = m.snapshot();
      EXPECT_EQ(after.counter("cache.hits") - mid.counter("cache.hits"),
                8u);  // all hits
      EXPECT_EQ(after.counter("fs.remote_fetches"),
                mid.counter("fs.remote_fetches"));  // no refetch
    }
    comm.barrier();
    inst.stop();
  });
}

TEST(PrefetcherTest, MissingFilesCountAsFailures) {
  // A path with no metadata cannot be warmed: it counts as a failure in
  // the rank's registry, and the real file next to it is still warmed.
  mpi::run_world(1, [&](mpi::Comm& comm) {
    core::Instance inst(comm, {});
    const auto& reg = compress::Registry::instance();
    const auto* codec = reg.by_name("lz4");
    format::PartitionWriter w;
    w.add(format::make_record("real", *codec, reg.id_of(*codec),
                              as_view(testdata::text_like(3000, 1))));
    const Bytes blob = w.serialize();
    inst.load_partition_blob(as_view(blob), 0);
    inst.exchange_metadata();

    dlsim::Prefetcher prefetcher(inst.fs(), 2);
    prefetcher.prefetch({"real", "ghost1", "ghost2"});
    prefetcher.wait();
    auto& m = inst.metrics();
    EXPECT_EQ(m.counter("prefetch.warmed").value(), 1u);
    EXPECT_EQ(m.counter("prefetch.failures").value(), 2u);
    EXPECT_EQ(m.counter("prefetch.fetch_staged").value(), 1u);  // local blob
    EXPECT_EQ(m.gauge("prefetch.queue_depth").value(), 0);
    EXPECT_TRUE(inst.fs().tiers().plain().contains("real"));
  });
}

// --- CheckpointManager ----------------------------------------------------

TEST(CheckpointTest, SaveAndResumeLatest) {
  posixfs::MemVfs local, shared;
  core::CheckpointManager mgr(local, &shared, "run1/ckpt");
  EXPECT_EQ(mgr.latest_epoch(), -1);
  EXPECT_FALSE(mgr.latest().has_value());

  for (int epoch = 1; epoch <= 3; ++epoch) {
    ASSERT_EQ(mgr.save(epoch, as_view(Bytes(100, static_cast<std::uint8_t>(epoch)))), 0);
  }
  EXPECT_EQ(mgr.latest_epoch(), 3);
  const auto ckpt = mgr.latest();
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->epoch, 3);
  EXPECT_EQ(ckpt->model, Bytes(100, 3));
}

TEST(CheckpointTest, ResumesFromSharedAfterLocalLoss) {
  // §V-E: node fails, local storage gone; resume from the shared mirror.
  posixfs::MemVfs shared;
  {
    posixfs::MemVfs local;
    core::CheckpointManager mgr(local, &shared, "ckpt");
    mgr.save(7, as_view(Bytes(64, 0x77)));
  }
  posixfs::MemVfs fresh_local;  // the replacement node
  core::CheckpointManager mgr(fresh_local, &shared, "ckpt");
  const auto ckpt = mgr.latest();
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->epoch, 7);
  EXPECT_EQ(ckpt->model, Bytes(64, 0x77));
}

TEST(CheckpointTest, WorksWithoutMirror) {
  posixfs::MemVfs local;
  core::CheckpointManager mgr(local, nullptr, "ckpt");
  ASSERT_EQ(mgr.save(1, as_view(Bytes{1, 2, 3})), 0);
  const auto ckpt = mgr.latest();
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->model, (Bytes{1, 2, 3}));
}

TEST(CheckpointTest, IgnoresForeignFiles) {
  posixfs::MemVfs local;
  posixfs::write_file(local, "ckpt/notes.txt", as_view(Bytes{1}));
  posixfs::write_file(local, "ckpt/ckpt_000005.bin", as_view(Bytes{5}));
  core::CheckpointManager mgr(local, nullptr, "ckpt");
  EXPECT_EQ(mgr.latest_epoch(), 5);
}

}  // namespace
}  // namespace fanstore
