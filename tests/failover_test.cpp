// Fault-tolerance tests: replica failover when a daemon dies (timed fetch
// + ring fallback), the failover-hops x replica-placement reach matrix,
// CRC-rejection hygiene, and data-parallel global-shuffle coverage.
#include <gtest/gtest.h>

#include <cerrno>
#include <limits>
#include <mutex>
#include <set>

#include "compress/registry.hpp"
#include "core/instance.hpp"
#include "dlsim/trainer.hpp"
#include "fault/injector.hpp"
#include "posixfs/mem_vfs.hpp"
#include "prep/prepare.hpp"
#include "tests/test_data.hpp"

namespace fanstore {
namespace {

// Stores every record of `part` into `inst`'s local backend without
// metadata ownership — the shape replicate_ring leaves on a replica rank.
void put_replica_blob(core::Instance& inst, const Bytes& part) {
  for (const auto& rec : format::scan_partition(as_view(part))) {
    core::Blob b;
    b.compressor = rec.compressor;
    b.data = Bytes(rec.data.begin(), rec.data.end());
    inst.backend().put(std::string(rec.path), std::move(b));
  }
}

TEST(FailoverTest, ReplicaServesWhenOwnerDaemonDies) {
  // 3 ranks; rank 1 owns "f" and rank 2 holds a ring replica. Rank 1's
  // daemon never starts (a "failed node"); rank 0's read must time out on
  // the owner and fail over to rank 2.
  const Bytes data = testdata::text_like(9000, 5);
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name("lz4hc");
  format::PartitionWriter w;
  w.add(format::make_record("f", *codec, reg.id_of(*codec), as_view(data)));
  const Bytes part = w.serialize();

  mpi::run_world(3, [&](mpi::Comm& comm) {
    core::Instance::Options opt;
    opt.fs.fetch_timeout_ms = 200;
    opt.fs.failover_hops = 2;
    core::Instance inst(comm, opt);
    if (comm.rank() == 1) {
      inst.load_partition_blob(as_view(part), 0, /*owner_rank=*/1);
    }
    if (comm.rank() == 2) {
      // The replica: blob in the local backend, no metadata ownership.
      const auto views = format::scan_partition(as_view(part));
      core::Blob b;
      b.compressor = views[0].compressor;
      b.data = Bytes(views[0].data.begin(), views[0].data.end());
      inst.backend().put("f", std::move(b));
    }
    inst.exchange_metadata();
    if (comm.rank() != 1) inst.start_daemon();  // rank 1 is "dead"
    comm.barrier();

    if (comm.rank() == 0) {
      const auto got = posixfs::read_file(inst.fs(), "f");
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, data);
      EXPECT_EQ(inst.fs().metrics().counter("fs.failovers").value(), 1u);
    }
    comm.barrier();
    inst.stop();
  });
}

TEST(FailoverTest, FetchFailsCleanlyWithNoReplica) {
  mpi::run_world(2, [&](mpi::Comm& comm) {
    core::Instance::Options opt;
    opt.fs.fetch_timeout_ms = 100;
    opt.fs.failover_hops = 1;
    core::Instance inst(comm, opt);
    if (comm.rank() == 1) {
      format::FileStat st;
      st.size = 10;
      st.owner_rank = 1;
      inst.metadata().insert("ghost", st);
    }
    inst.exchange_metadata();
    // No daemons at all: the open must fail with -EIO, not hang.
    if (comm.rank() == 0) {
      EXPECT_EQ(inst.fs().open("ghost", posixfs::OpenMode::kRead), -EIO);
    }
    comm.barrier();
    inst.stop();
  });
}

TEST(FailoverTest, RingReplicationPlusFailoverEndToEnd) {
  // Full flow: prep -> load_from_shared -> replicate_ring(1); then one
  // daemon "dies" and its files remain readable from the successor.
  posixfs::MemVfs shared;
  {
    posixfs::MemVfs src;
    for (int i = 0; i < 8; ++i) {
      posixfs::write_file(src, "ds/f" + std::to_string(i),
                          as_view(testdata::runs_and_noise(4000, i)));
    }
    prep::PrepOptions opt;
    opt.num_partitions = 4;
    opt.compressor = "lz4";
    prep::prepare_dataset(src, "ds", shared, "packed", opt);
  }
  constexpr int kDead = 2;
  mpi::run_world(4, [&](mpi::Comm& comm) {
    core::Instance::Options opt;
    opt.fs.fetch_timeout_ms = 300;
    opt.fs.failover_hops = 2;
    core::Instance inst(comm, opt);
    const auto manifest = prep::load_manifest(shared, "packed");
    inst.load_from_shared(shared, manifest.partition_paths());
    inst.replicate_ring(1);
    inst.exchange_metadata();
    if (comm.rank() != kDead) inst.start_daemon();
    comm.barrier();

    if (comm.rank() == 0) {
      // Every file is readable, including rank 2's (replicated on rank 3).
      for (int i = 0; i < 8; ++i) {
        const auto got = posixfs::read_file(inst.fs(), "ds/f" + std::to_string(i));
        ASSERT_TRUE(got.has_value()) << i;
        EXPECT_EQ(*got, testdata::runs_and_noise(4000, i)) << i;
      }
      EXPECT_GE(inst.fs().metrics().counter("fs.failovers").value(), 1u);
    }
    comm.barrier();
    inst.stop();
  });
}

// Reach matrix: with a dead owner, a fetch walks the ring for
// `failover_hops` extra candidates, so a single replica placed `distance`
// ranks past the owner is reachable iff failover_hops >= distance.
class FailoverMatrixTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FailoverMatrixTest, ReplicaReachableIffHopsCoverDistance) {
  const int hops = std::get<0>(GetParam());
  const int distance = std::get<1>(GetParam());
  constexpr int kOwner = 1;
  const bool expect_ok = hops >= distance;

  const Bytes data = testdata::runs_and_noise(5000, 40 + distance);
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name("lz4");
  format::PartitionWriter w;
  w.add(format::make_record("m", *codec, reg.id_of(*codec), as_view(data)));
  const Bytes part = w.serialize();

  mpi::run_world(5, [&](mpi::Comm& comm) {
    core::Instance::Options opt;
    opt.fs.fetch_timeout_ms = 60;
    opt.fs.failover_hops = hops;
    opt.fs.retry.max_attempts = 2;
    opt.fs.retry.base_delay_ms = 1;
    core::Instance inst(comm, opt);
    if (comm.rank() == kOwner) {
      inst.load_partition_blob(as_view(part), 0, kOwner);
    }
    if (comm.rank() == kOwner + distance) put_replica_blob(inst, part);
    inst.exchange_metadata();
    if (comm.rank() != kOwner) inst.start_daemon();  // owner is "dead"
    comm.barrier();

    if (comm.rank() == 0) {
      if (expect_ok) {
        const auto got = posixfs::read_file(inst.fs(), "m");
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, data);
        EXPECT_EQ(inst.fs().metrics().counter("fs.failovers").value(), 1u);
      } else {
        EXPECT_EQ(inst.fs().open("m", posixfs::OpenMode::kRead), -EIO);
        EXPECT_EQ(inst.fs().metrics().counter("fs.failovers").value(), 0u);
      }
    }
    comm.barrier();
    inst.stop();
  });
}

INSTANTIATE_TEST_SUITE_P(
    HopsByPlacement, FailoverMatrixTest,
    ::testing::Combine(::testing::Values(1, 2, 3),   // failover_hops
                       ::testing::Values(1, 2, 3)),  // replica distance
    [](const ::testing::TestParamInfo<FailoverMatrixTest::ParamType>& info) {
      return "hops" + std::to_string(std::get<0>(info.param)) + "_dist" +
             std::to_string(std::get<1>(info.param));
    });

TEST(FailoverTest, CrcRejectedReplyNeverLandsInCacheOrDecodeStats) {
  // Replies from the owner are corrupted in flight until the fault budget
  // (2) runs out. The rejected replies must leave no trace: nothing in the
  // PlainCache, no chunk decoded, no DecodeStats charge — only
  // retry.crc_rejects. Once the budget is spent, the same open succeeds.
  const Bytes data = testdata::runs_and_noise(9000, 77);
  const auto& reg = compress::Registry::instance();
  // Chunked codec so any decode attempt would charge chunked.chunks_decoded.
  const auto* codec = reg.by_name("chunked-4k+lz4");
  ASSERT_NE(codec, nullptr);
  format::PartitionWriter w;
  w.add(format::make_record("c", *codec, reg.id_of(*codec), as_view(data)));
  const Bytes part = w.serialize();

  fault::FaultPlan plan;
  plan.corrupt_from(1, fault::kFetchReplyTagMin, std::numeric_limits<int>::max(),
                    1.0);
  plan.messages.back().max_faults = 2;
  fault::FaultInjector inj(plan);

  mpi::run_world(
      2,
      [&](mpi::Comm& comm) {
        core::Instance::Options opt;
        opt.fs.fetch_timeout_ms = 200;
        opt.fs.failover_hops = 0;
        opt.fs.retry.max_attempts = 2;
        opt.fs.retry.base_delay_ms = 1;
        opt.fault = &inj;
        core::Instance inst(comm, opt);
        if (comm.rank() == 1) inst.load_partition_blob(as_view(part), 0, 1);
        inst.exchange_metadata();
        inst.start_daemon();
        comm.barrier();

        if (comm.rank() == 0) {
          auto& m = inst.metrics();
          // Both attempts hit a corrupted reply: the open fails...
          EXPECT_EQ(inst.fs().open("c", posixfs::OpenMode::kRead), -EIO);
          EXPECT_EQ(m.counter("retry.crc_rejects").value(), 2u);
          EXPECT_EQ(m.counter("retry.exhausted").value(), 1u);
          // ...and the poisoned bytes were never interpreted: no cache
          // entry, no successful remote fetch, zero decode work charged.
          EXPECT_FALSE(inst.fs().tiers().plain().contains("c"));
          EXPECT_EQ(m.counter("fs.remote_fetches").value(), 0u);
          EXPECT_EQ(m.counter("chunked.chunks_decoded").value(), 0u);
          EXPECT_EQ(m.counter("chunked.bytes_decoded").value(), 0u);

          // Fault budget exhausted -> the next open gets a clean reply.
          const auto got = posixfs::read_file(inst.fs(), "c");
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, data);
          EXPECT_TRUE(inst.fs().tiers().plain().contains("c"));
          EXPECT_GT(m.counter("chunked.chunks_decoded").value(), 0u);
          EXPECT_EQ(m.counter("retry.crc_rejects").value(), 2u);  // unchanged
        }
        comm.barrier();
        inst.stop();
      },
      &inj);
  EXPECT_EQ(inj.metrics().counter("fault.msg_corrupted").value(), 2u);
}

TEST(GlobalShuffleTest, EveryFileVisitedOncePerEpoch) {
  // Data-parallel semantics: 2 ranks x batch 3 over 12 files -> 2
  // iterations/epoch, every file read exactly once per epoch job-wide.
  std::mutex mu;
  std::multiset<std::string> read_paths;
  mpi::run_world(2, [&](mpi::Comm& comm) {
    core::Instance inst(comm, {});
    const auto& reg = compress::Registry::instance();
    const auto* codec = reg.by_name("store");
    format::PartitionWriter w;
    std::vector<std::string> files;
    for (int i = 0; i < 12; ++i) {
      const std::string p = "d/f" + std::to_string(i);
      files.push_back(p);
      if (i % 2 == comm.rank()) {
        w.add(format::make_record(p, *codec, 0, as_view(Bytes(64, static_cast<std::uint8_t>(i)))));
      }
    }
    const Bytes blob = w.serialize();
    inst.load_partition_blob(as_view(blob), static_cast<std::uint32_t>(comm.rank()));
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    simnet::VirtualClock clock;
    dlsim::TrainerOptions topt;
    topt.t_iter_s = 0.01;
    topt.batch_per_rank = 3;
    topt.epochs = 1;
    topt.io_clock = &clock;
    topt.comm = &comm;
    topt.global_shuffle = true;
    const auto result = dlsim::run_training(inst.fs(), files, topt);
    EXPECT_EQ(result.iterations, 2u);  // 12 / (3 x 2 ranks)
    EXPECT_EQ(result.files_read, 6u);

    // Collect which files this rank actually opened via stats-free route:
    // re-derive from cache contents (every opened file was cached).
    {
      std::lock_guard lk(mu);
      for (const auto& p : files) {
        if (inst.fs().tiers().plain().contains(p)) read_paths.insert(p);
      }
    }
    comm.barrier();
    inst.stop();
  });
  // Disjoint slices: no file cached on both ranks, all 12 covered.
  EXPECT_EQ(read_paths.size(), 12u);
  for (const auto& p : read_paths) EXPECT_EQ(read_paths.count(p), 1u) << p;
}

TEST(GlobalShuffleTest, RequiresComm) {
  posixfs::MemVfs fs;
  simnet::VirtualClock clock;
  dlsim::TrainerOptions opt;
  opt.io_clock = &clock;
  opt.global_shuffle = true;
  EXPECT_THROW(dlsim::run_training(fs, {"f"}, opt), std::invalid_argument);
}

}  // namespace
}  // namespace fanstore
