// Multi-epoch chaos soak for the full stack (DESIGN.md §8): a 3-rank
// data-parallel training loop runs over a seed-derived chaos fabric
// (loss + delay + duplication + corruption, a straggler rank, and one
// daemon that dies after a few fetches). The soak asserts the two
// end-to-end guarantees the fault model promises:
//
//   1. every epoch observes the full dataset exactly once across ranks
//      (global-shuffle coverage is unaffected by retries/failover), and
//   2. every byte read matches the source data (loss becomes latency,
//      never corruption).
//
// The fault schedule is fully determined by FANSTORE_FAULT_SEED; the test
// prints its seed so any failure replays with:
//
//   FANSTORE_FAULT_SEED=<seed> ./chaos_soak_test
#include <gtest/gtest.h>

#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "dlsim/trainer.hpp"
#include "fault/injector.hpp"
#include "posixfs/mem_vfs.hpp"
#include "prep/prepare.hpp"
#include "simnet/virtual_clock.hpp"
#include "tests/sanitizer_env.hpp"
#include "tests/test_data.hpp"

namespace fanstore {
namespace {

constexpr int kRanks = 3;
constexpr int kFiles = 24;
constexpr int kEpochs = 3;
constexpr std::size_t kBatchPerRank = 2;  // 24 / (3 * 2) = 4 iters/epoch

Bytes file_content(int i) { return testdata::runs_and_noise(4000, 900 + i); }

TEST(ChaosSoakTest, SeededTrainingSoakSeesEveryFileOncePerEpoch) {
  const std::uint64_t seed = fault::fault_seed_from_env(0x50AC5EEDull);
  std::printf("[chaos_soak] FANSTORE_FAULT_SEED=%llu  (export to replay)\n",
              static_cast<unsigned long long>(seed));
  RecordProperty("fault_seed", std::to_string(seed));

  // Dataset on the shared FS, prepped into 8 lz4 partitions distributed
  // round-robin over the 3 ranks.
  posixfs::MemVfs shared;
  {
    posixfs::MemVfs src;
    for (int i = 0; i < kFiles; ++i) {
      posixfs::write_file(src, "ds/f" + std::to_string(i), as_view(file_content(i)));
    }
    prep::PrepOptions popt;
    popt.num_partitions = 8;
    popt.compressor = "lz4";
    prep::prepare_dataset(src, "ds", shared, "packed", popt);
  }
  std::vector<std::string> files;
  for (int i = 0; i < kFiles; ++i) files.push_back("ds/f" + std::to_string(i));

  const fault::FaultPlan plan = fault::FaultPlan::chaos_from_seed(seed, kRanks);
  fault::FaultInjector inj(plan);

  // Gathered across ranks under `mu`.
  std::mutex mu;
  std::vector<std::multiset<std::string>> epoch_reads(kEpochs);
  std::uint64_t retry_events = 0;
  std::uint64_t failovers = 0;

  mpi::run_world(
      kRanks,
      [&](mpi::Comm& comm) {
        simnet::VirtualClock clock;
        core::Instance::Options opt;
        // The chaos plan may kill one daemon for good: a fetch aimed at it
        // burns the full timeout per attempt, so keep the timeout tight and
        // the retry budget deep — the surviving ring replica (failover hop)
        // must get enough attempts to beat worst-case loss.
        opt.fs.fetch_timeout_ms = testsupport::kUnderSanitizer ? 100 : 20;
        opt.fs.failover_hops = 2;
        opt.fs.retry.max_attempts = 16;
        opt.fs.retry.base_delay_ms = 1;
        opt.fs.retry.max_delay_ms = 8;
        opt.fault = &inj;
        core::Instance inst(comm, opt);
        const auto manifest = prep::load_manifest(shared, "packed");
        inst.load_from_shared(shared, manifest.partition_paths());
        inst.replicate_ring(1);
        inst.exchange_metadata();
        inst.start_daemon();
        comm.barrier();

        dlsim::TrainerOptions topt;
        topt.epochs = kEpochs;
        topt.batch_per_rank = kBatchPerRank;
        topt.global_shuffle = true;
        topt.comm = &comm;
        topt.seed = seed ^ 0x7EA17ull;
        topt.io_clock = &clock;
        topt.metrics = &inst.metrics();
        topt.record_epoch_files = true;
        topt.t_iter_s = 0.01;
        const auto result = dlsim::run_training(inst.fs(), files, topt);

        ASSERT_EQ(result.epoch_files.size(), static_cast<std::size_t>(kEpochs));
        {
          std::lock_guard lk(mu);
          for (int e = 0; e < kEpochs; ++e) {
            epoch_reads[static_cast<std::size_t>(e)].insert(
                result.epoch_files[static_cast<std::size_t>(e)].begin(),
                result.epoch_files[static_cast<std::size_t>(e)].end());
          }
          retry_events += inst.metrics().counter("retry.attempts").value() +
                          inst.metrics().counter("retry.timeouts").value() +
                          inst.metrics().counter("retry.crc_rejects").value();
          failovers += inst.fs().metrics().counter("fs.failovers").value();
        }
        comm.barrier();

        // Final sweep: every byte of every file, on every rank, must match
        // the source exactly — zero tolerated corruption after an epoch of
        // drops, dups, corrupted frames, and a dead daemon.
        for (int i = 0; i < kFiles; ++i) {
          const auto got = posixfs::read_file(inst.fs(), files[static_cast<std::size_t>(i)]);
          ASSERT_TRUE(got.has_value()) << files[static_cast<std::size_t>(i)]
                                       << " rank " << comm.rank();
          EXPECT_EQ(*got, file_content(i))
              << files[static_cast<std::size_t>(i)] << " rank " << comm.rank();
        }
        comm.barrier();
        inst.stop();
      },
      &inj);

  // Exactly-once per epoch, across the whole job.
  for (int e = 0; e < kEpochs; ++e) {
    const auto& reads = epoch_reads[static_cast<std::size_t>(e)];
    EXPECT_EQ(reads.size(), static_cast<std::size_t>(kFiles)) << "epoch " << e;
    for (const auto& f : files) {
      EXPECT_EQ(reads.count(f), 1u) << "epoch " << e << " file " << f;
    }
  }

  // The chaos actually happened — this test must fail if injection is off.
  EXPECT_GT(inj.faults_injected(), 0u);
  EXPECT_GT(retry_events, 0u);
  std::printf(
      "[chaos_soak] faults=%llu retries=%llu failovers=%llu dropped=%llu "
      "corrupted=%llu delayed=%llu duplicated=%llu daemon_dropped=%llu\n",
      static_cast<unsigned long long>(inj.faults_injected()),
      static_cast<unsigned long long>(retry_events),
      static_cast<unsigned long long>(failovers),
      static_cast<unsigned long long>(inj.metrics().counter("fault.msg_dropped").value()),
      static_cast<unsigned long long>(inj.metrics().counter("fault.msg_corrupted").value()),
      static_cast<unsigned long long>(inj.metrics().counter("fault.msg_delayed").value()),
      static_cast<unsigned long long>(inj.metrics().counter("fault.msg_duplicated").value()),
      static_cast<unsigned long long>(
          inj.metrics().counter("fault.daemon_dropped").value()));
}

// The same seed must produce the same fault schedule end to end: two soak
// worlds with scripted (deterministic, single-threaded-per-channel) traffic
// are covered in chaos_test; here we pin the plan level — the soak's whole
// adversity script is a pure function of the printed seed.
TEST(ChaosSoakTest, PlanDerivationMatchesPrintedSeed) {
  const std::uint64_t seed = fault::fault_seed_from_env(0x50AC5EEDull);
  const auto a = fault::FaultPlan::chaos_from_seed(seed, kRanks);
  const auto b = fault::FaultPlan::chaos_from_seed(seed, kRanks);
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].drop_prob, b.messages[i].drop_prob);
    EXPECT_EQ(a.messages[i].delay_prob, b.messages[i].delay_prob);
    EXPECT_EQ(a.messages[i].dup_prob, b.messages[i].dup_prob);
    EXPECT_EQ(a.messages[i].corrupt_prob, b.messages[i].corrupt_prob);
  }
  ASSERT_EQ(a.daemons.size(), b.daemons.size());
  for (std::size_t i = 0; i < a.daemons.size(); ++i) {
    EXPECT_EQ(a.daemons[i].rank, b.daemons[i].rank);
    EXPECT_EQ(a.daemons[i].crash_after_fetches, b.daemons[i].crash_after_fetches);
  }
}

}  // namespace
}  // namespace fanstore
