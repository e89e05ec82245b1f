// Chaos tests for the remote-fetch path (DESIGN.md §8 "Fault model").
//
// Every scenario drives real FanStore instances under a deterministic
// FaultPlan and asserts two things: the system survives with *byte-exact*
// data (retry + CRC + failover did their job), and the intended faults
// actually fired (each test fails if its injection is disabled — the
// fault.* counters would read zero).
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "compress/registry.hpp"
#include "core/instance.hpp"
#include "fault/injector.hpp"
#include "posixfs/mem_vfs.hpp"
#include "prep/prepare.hpp"
#include "mpi/comm.hpp"
#include "mpi/envelope.hpp"
#include "simnet/virtual_clock.hpp"
#include "tests/sanitizer_env.hpp"
#include "util/clock.hpp"
#include "tests/test_data.hpp"
#include "util/timer.hpp"

namespace fanstore {
namespace {

// Sanitizer builds run everything several times slower; stretch the tight
// fetch timeouts so a slow-but-alive daemon is not mistaken for a dead one.
constexpr int scale_ms(int ms) {
  return testsupport::kUnderSanitizer ? ms * 5 : ms;
}

// One-file partition blob with the given codec.
Bytes one_file_partition(const std::string& path, const Bytes& data,
                         const char* codec_name = "lz4") {
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name(codec_name);
  format::PartitionWriter w;
  w.add(format::make_record(path, *codec, reg.id_of(*codec), as_view(data)));
  return w.serialize();
}

// Stores `part`'s blobs into `inst`'s backend without metadata ownership —
// what replicate_ring leaves on a replica rank.
void put_replica(core::Instance& inst, const Bytes& part) {
  const auto views = format::scan_partition(as_view(part));
  for (const auto& rec : views) {
    core::Blob b;
    b.compressor = rec.compressor;
    b.data = Bytes(rec.data.begin(), rec.data.end());
    inst.backend().put(std::string(rec.path), std::move(b));
  }
}

// Shared-FS dataset of `nfiles` deterministic files under "ds/", prepped
// into `nparts` lz4 partitions at "packed" on `shared` (MemVfs cannot be
// moved, so the destination comes in by reference).
void make_prepped_dataset(posixfs::MemVfs& shared, int nfiles, int nparts) {
  posixfs::MemVfs src;
  for (int i = 0; i < nfiles; ++i) {
    posixfs::write_file(src, "ds/f" + std::to_string(i),
                        as_view(testdata::runs_and_noise(4000, i)));
  }
  prep::PrepOptions opt;
  opt.num_partitions = static_cast<std::size_t>(nparts);
  opt.compressor = "lz4";
  prep::prepare_dataset(src, "ds", shared, "packed", opt);
}

// Runs a 3-rank world over the prepped dataset (ring replica + failover),
// with every rank reading every file; returns rank 0's reads keyed by
// path. `injector` may be nullptr for the fault-free reference run.
std::map<std::string, Bytes> read_all_under(posixfs::MemVfs& shared, int nfiles,
                                            fault::FaultInjector* injector,
                                            std::uint64_t* retry_events = nullptr) {
  std::map<std::string, Bytes> rank0_reads;
  std::atomic<std::uint64_t> retries{0};
  mpi::run_world(
      3,
      [&](mpi::Comm& comm) {
        core::Instance::Options opt;
        opt.fs.fetch_timeout_ms = scale_ms(40);
        opt.fs.failover_hops = 2;
        opt.fs.retry.max_attempts = 8;
        opt.fs.retry.base_delay_ms = 1;
        opt.fs.retry.max_delay_ms = 8;
        opt.fault = injector;
        core::Instance inst(comm, opt);
        const auto manifest = prep::load_manifest(shared, "packed");
        inst.load_from_shared(shared, manifest.partition_paths());
        inst.replicate_ring(1);
        inst.exchange_metadata();
        inst.start_daemon();
        comm.barrier();

        for (int i = 0; i < nfiles; ++i) {
          const std::string p = "ds/f" + std::to_string(i);
          const auto got = posixfs::read_file(inst.fs(), p);
          ASSERT_TRUE(got.has_value()) << p << " rank " << comm.rank();
          if (comm.rank() == 0) rank0_reads[p] = *got;
        }
        retries += inst.metrics().counter("retry.attempts").value() +
                   inst.metrics().counter("retry.timeouts").value();
        comm.barrier();
        inst.stop();
      },
      injector);
  if (retry_events != nullptr) *retry_events = retries.load();
  return rank0_reads;
}

// Acceptance criterion: under a 30%-message-loss plan a 3-rank epoch of
// reads completes, retry.* counters are busy, and every byte matches the
// fault-free run — loss became latency, never corruption.
TEST(ChaosTest, ThirtyPercentLossEpochIsByteIdenticalToFaultFreeRun) {
  constexpr int kFiles = 12;
  posixfs::MemVfs shared;
  make_prepped_dataset(shared, kFiles, 6);

  const auto clean = read_all_under(shared, kFiles, nullptr);
  ASSERT_EQ(clean.size(), static_cast<std::size_t>(kFiles));

  fault::FaultPlan plan;
  plan.with_seed(0xDEAD30F5ull).lossy_links(0.30);
  fault::FaultInjector inj(plan);
  std::uint64_t retry_events = 0;
  const auto faulty = read_all_under(shared, kFiles, &inj, &retry_events);

  // The loss really happened and really forced retries...
  EXPECT_GT(inj.metrics().counter("fault.msg_dropped").value(), 0u);
  EXPECT_GT(retry_events, 0u);
  // ...and changed nothing about the data.
  EXPECT_EQ(faulty, clean);
}

TEST(ChaosTest, DelayedLinksAddLatencyNotErrors) {
  const Bytes data = testdata::text_like(6000, 11);
  const Bytes part = one_file_partition("f", data);
  fault::FaultPlan plan;
  plan.with_seed(77).delayed_links(1.0, 25);
  fault::FaultInjector inj(plan);

  mpi::run_world(
      2,
      [&](mpi::Comm& comm) {
        core::Instance::Options opt;
        opt.fs.fetch_timeout_ms = 500;
        opt.fault = &inj;
        core::Instance inst(comm, opt);
        if (comm.rank() == 1) inst.load_partition_blob(as_view(part), 0, 1);
        inst.exchange_metadata();
        inst.start_daemon();
        comm.barrier();
        if (comm.rank() == 0) {
          WallTimer timer;
          const auto got = posixfs::read_file(inst.fs(), "f");
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, data);
          // Request and reply are both deferred 25 ms; the receiver must
          // have actually waited for the due time.
          EXPECT_GE(timer.elapsed_us(), 25 * 1000.0);
        }
        comm.barrier();
        inst.stop();
      },
      &inj);
  EXPECT_GT(inj.metrics().counter("fault.msg_delayed").value(), 0u);
}

TEST(ChaosTest, CorruptedRepliesAreRejectedAndServedByReplica) {
  // Every reply from the owner (rank 1) is corrupted in flight; rank 0
  // must reject each via the wire CRC, exhaust its retries, and fetch the
  // clean copy from the replica on rank 2 — ending with perfect bytes.
  const Bytes data = testdata::random_bytes(8000, 21);
  const Bytes part = one_file_partition("f", data);
  fault::FaultPlan plan;
  plan.with_seed(5).corrupt_from(1, mpi::kFetchReplyTagBase,
                                 std::numeric_limits<int>::max(), 1.0);
  fault::FaultInjector inj(plan);
  constexpr int kAttempts = 3;

  mpi::run_world(
      3,
      [&](mpi::Comm& comm) {
        core::Instance::Options opt;
        opt.fs.fetch_timeout_ms = 300;
        opt.fs.failover_hops = 2;
        opt.fs.retry.max_attempts = kAttempts;
        opt.fs.retry.base_delay_ms = 1;
        opt.fault = &inj;
        core::Instance inst(comm, opt);
        if (comm.rank() == 1) inst.load_partition_blob(as_view(part), 0, 1);
        if (comm.rank() == 2) put_replica(inst, part);
        inst.exchange_metadata();
        inst.start_daemon();
        comm.barrier();
        if (comm.rank() == 0) {
          const auto got = posixfs::read_file(inst.fs(), "f");
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, data);
          auto& m = inst.metrics();
          EXPECT_EQ(m.counter("retry.crc_rejects").value(),
                    static_cast<std::uint64_t>(kAttempts));
          EXPECT_EQ(m.counter("retry.exhausted").value(), 1u);
          EXPECT_EQ(inst.fs().metrics().counter("fs.failovers").value(), 1u);
        }
        comm.barrier();
        inst.stop();
      },
      &inj);
  EXPECT_GT(inj.metrics().counter("fault.msg_corrupted").value(), 0u);
}

TEST(ChaosTest, OwnerDaemonDiesMidEpochFailoverCoversIt) {
  // Rank 1 owns 6 files (replica on rank 2) and its daemon crashes after
  // serving 3 fetches; the remaining reads time out on the owner and land
  // on the replica.
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name("lz4");
  format::PartitionWriter w;
  std::vector<Bytes> contents;
  for (int i = 0; i < 6; ++i) {
    contents.push_back(testdata::runs_and_noise(5000, 100 + i));
    w.add(format::make_record("g" + std::to_string(i), *codec, reg.id_of(*codec),
                              as_view(contents.back())));
  }
  const Bytes part = w.serialize();

  fault::FaultPlan plan;
  plan.kill_daemon_after(1, 3);
  fault::FaultInjector inj(plan);

  mpi::run_world(
      3,
      [&](mpi::Comm& comm) {
        core::Instance::Options opt;
        opt.fs.fetch_timeout_ms = scale_ms(40);
        opt.fs.failover_hops = 2;
        opt.fs.retry.max_attempts = 2;
        opt.fs.retry.base_delay_ms = 1;
        opt.fault = &inj;
        core::Instance inst(comm, opt);
        if (comm.rank() == 1) inst.load_partition_blob(as_view(part), 0, 1);
        if (comm.rank() == 2) put_replica(inst, part);
        inst.exchange_metadata();
        inst.start_daemon();
        comm.barrier();
        if (comm.rank() == 0) {
          for (int i = 0; i < 6; ++i) {
            const auto got = posixfs::read_file(inst.fs(), "g" + std::to_string(i));
            ASSERT_TRUE(got.has_value()) << i;
            EXPECT_EQ(*got, contents[static_cast<std::size_t>(i)]) << i;
          }
          EXPECT_GE(inst.fs().metrics().counter("fs.failovers").value(), 1u);
          EXPECT_GE(inst.metrics().counter("retry.timeouts").value(), 1u);
        }
        comm.barrier();
        inst.stop();
      },
      &inj);
  EXPECT_GT(inj.metrics().counter("fault.daemon_dropped").value(), 0u);
}

TEST(ChaosTest, CrashWindowOnVirtualClockKillsAndRestartsDaemon) {
  // Rank 1's daemon is scripted dead for virtual seconds [1, 2): reads
  // succeed before the window, fail inside it, and succeed again after
  // the rank's clock passes the restart instant. Inside the window the
  // whole rank is down: metadata requests go unanswered and forwarded
  // write metadata is dropped, not just fetches.
  const Bytes data_a = testdata::text_like(3000, 31);
  const Bytes data_b = testdata::text_like(3000, 32);
  fault::FaultPlan plan;
  plan.crash_window(1, 1.0, 2.0);
  fault::FaultInjector inj(plan);

  mpi::run_world(
      2,
      [&](mpi::Comm& comm) {
        simnet::VirtualClock clock;
        core::Instance::Options opt;
        opt.fs.fetch_timeout_ms = scale_ms(30);
        opt.fs.failover_hops = 1;
        opt.fs.retry.max_attempts = 2;
        opt.fs.retry.base_delay_ms = 1;
        opt.fs.clock = &clock;
        opt.fault = &inj;
        core::Instance inst(comm, opt);
        if (comm.rank() == 1) {
          format::PartitionWriter w;
          const auto& reg = compress::Registry::instance();
          const auto* codec = reg.by_name("lz4");
          w.add(format::make_record("a", *codec, reg.id_of(*codec), as_view(data_a)));
          w.add(format::make_record("b", *codec, reg.id_of(*codec), as_view(data_b)));
          inst.load_partition_blob(as_view(w.serialize()), 0, 1);
        }
        inst.exchange_metadata();
        inst.start_daemon();
        comm.barrier();

        // Phase 1: before the window — the fetch works.
        if (comm.rank() == 0) {
          const auto got = posixfs::read_file(inst.fs(), "a");
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, data_a);
        }
        comm.barrier();

        // A metadata lookup sent straight to rank 1's daemon, answered or
        // not within a short wait (not a full resolve, which waits
        // kRpcTimeoutMs per try).
        mpi::Caller probe(comm, mpi::kClusterReplyTagBase +
                                    static_cast<int>(mpi::kReplyTagSpan));
        const auto lookup_answered = [&] {
          return probe
              .call(1, mpi::kTagMetaLookup, as_view(std::string("a")),
                    mpi::Wait{scale_ms(100), {}})
              .ok();
        };

        // Phase 2: rank 1 advances into the window — "b" is unreachable,
        // a metadata lookup goes unanswered, and the metadata of a file
        // rank 0 writes now is forwarded to rank 1 and dropped there.
        if (comm.rank() == 1) clock.advance_sec(1.5);
        comm.barrier();
        if (comm.rank() == 0) {
          const obs::Counter& dropped = inj.metrics().counter("fault.daemon_dropped");
          ASSERT_EQ(posixfs::write_file(inst.fs(), "w", as_view(data_a)), 0);
          EXPECT_FALSE(lookup_answered());
          // Rank 1's loop takes rank 0's messages in order: once the
          // forward and the lookup behind it are both counted dropped, the
          // forward was handled inside the window, not after the restart.
          for (int i = 0; i < 500 && dropped.value() < 2; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
          EXPECT_EQ(dropped.value(), 2u);
          EXPECT_EQ(inst.fs().open("b", posixfs::OpenMode::kRead), -EIO);
        }
        comm.barrier();

        // Phase 3: rank 1 restarts (clock beyond the window) — "b" reads
        // and lookups are answered again.
        if (comm.rank() == 1) clock.advance_sec(1.0);
        comm.barrier();
        if (comm.rank() == 0) {
          const auto got = posixfs::read_file(inst.fs(), "b");
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, data_b);
          // One loop serves rank 0's messages in order, so this answer
          // also means the write-meta forward was handled before it.
          EXPECT_TRUE(lookup_answered());
        }
        comm.barrier();
        if (comm.rank() == 1) {
          EXPECT_FALSE(inst.metadata().lookup("w").has_value());
          EXPECT_EQ(inst.metrics().counter("daemon.meta_forwards").value(), 0u);
        }
        comm.barrier();
        inst.stop();
      },
      &inj);
  EXPECT_GT(inj.metrics().counter("fault.daemon_dropped").value(), 0u);
}

TEST(ChaosTest, StragglerRankPaysMultipliedVirtualCost) {
  // Rank 1 is scripted 4x slower (storage + network). Both ranks open an
  // identical local file with cost accounting on; the straggler's virtual
  // clock must advance ~4x as far.
  double deltas[2] = {0, 0};
  std::mutex mu;
  fault::FaultPlan plan;
  plan.straggler(1, 4.0, 4.0);
  fault::FaultInjector inj(plan);

  mpi::run_world(
      2,
      [&](mpi::Comm& comm) {
        simnet::VirtualClock clock;
        core::Instance::Options opt;
        opt.fs.cost.enabled = true;
        opt.fs.clock = &clock;
        opt.fault = &inj;
        core::Instance inst(comm, opt);
        const std::string mine = "own" + std::to_string(comm.rank());
        inst.load_partition_blob(
            as_view(one_file_partition(mine, testdata::low_entropy(32768, 7), "store")),
            0, comm.rank());
        inst.exchange_metadata();
        comm.barrier();

        const double before = clock.now_sec();
        const auto got = posixfs::read_file(inst.fs(), mine);
        ASSERT_TRUE(got.has_value());
        {
          std::lock_guard lk(mu);
          deltas[comm.rank()] = clock.now_sec() - before;
        }
        comm.barrier();
        inst.stop();
      },
      &inj);
  ASSERT_GT(deltas[0], 0.0);
  // Identical work, 4x multiplier; allow modest slack for fixed-cost mix.
  EXPECT_GT(deltas[1] / deltas[0], 3.0);
  EXPECT_LT(deltas[1] / deltas[0], 5.0);
}

TEST(ChaosTest, DuplicatedMessagesAreHarmless) {
  const Bytes data = testdata::random_bytes(4096, 55);
  const Bytes part = one_file_partition("f", data);
  fault::FaultPlan plan;
  plan.with_seed(9).duplicating_links(1.0);
  fault::FaultInjector inj(plan);

  mpi::run_world(
      2,
      [&](mpi::Comm& comm) {
        core::Instance::Options opt;
        opt.fs.fetch_timeout_ms = 300;
        opt.fault = &inj;
        core::Instance inst(comm, opt);
        if (comm.rank() == 1) inst.load_partition_blob(as_view(part), 0, 1);
        inst.exchange_metadata();
        inst.start_daemon();
        comm.barrier();
        if (comm.rank() == 0) {
          // Duplicated request -> daemon serves twice; duplicated reply ->
          // one copy is consumed, one rots in the mailbox. Either way the
          // read sees exactly the right bytes.
          const auto got = posixfs::read_file(inst.fs(), "f");
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, data);
        }
        comm.barrier();
        inst.stop();
      },
      &inj);
  EXPECT_GT(inj.metrics().counter("fault.msg_duplicated").value(), 0u);
}

TEST(ChaosTest, ManualDaemonKillAndRestartKeepsCacheIntact) {
  // A daemon "crash" must not invalidate data already decompressed into the
  // reader's cache; after a manual restart, cold paths work again too.
  const Bytes data_a = testdata::text_like(4000, 61);
  const Bytes data_b = testdata::text_like(4000, 62);
  fault::FaultInjector inj(fault::FaultPlan{});  // empty plan: manual control

  mpi::run_world(
      2,
      [&](mpi::Comm& comm) {
        core::Instance::Options opt;
        opt.fs.fetch_timeout_ms = scale_ms(30);
        opt.fs.failover_hops = 1;
        opt.fs.retry.max_attempts = 2;
        opt.fs.retry.base_delay_ms = 1;
        opt.fault = &inj;
        core::Instance inst(comm, opt);
        if (comm.rank() == 1) {
          format::PartitionWriter w;
          const auto& reg = compress::Registry::instance();
          const auto* codec = reg.by_name("lz4");
          w.add(format::make_record("a", *codec, reg.id_of(*codec), as_view(data_a)));
          w.add(format::make_record("b", *codec, reg.id_of(*codec), as_view(data_b)));
          inst.load_partition_blob(as_view(w.serialize()), 0, 1);
        }
        inst.exchange_metadata();
        inst.start_daemon();
        comm.barrier();

        if (comm.rank() == 0) {
          ASSERT_TRUE(posixfs::read_file(inst.fs(), "a").has_value());
        }
        comm.barrier();
        inj.kill_daemon(1);
        comm.barrier();
        if (comm.rank() == 0) {
          // Cached file: readable while the owner is dead (pure cache hit).
          EXPECT_TRUE(inst.fs().tiers().plain().contains("a"));
          const auto got = posixfs::read_file(inst.fs(), "a");
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, data_a);
          // Uncached file: unreachable until the daemon comes back.
          EXPECT_EQ(inst.fs().open("b", posixfs::OpenMode::kRead), -EIO);
        }
        comm.barrier();
        inj.revive_daemon(1);
        comm.barrier();
        if (comm.rank() == 0) {
          const auto got = posixfs::read_file(inst.fs(), "b");
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, data_b);
          // Survived throughout.
          EXPECT_TRUE(inst.fs().tiers().plain().contains("a"));
        }
        comm.barrier();
        inst.stop();
      },
      &inj);
  EXPECT_GT(inj.metrics().counter("fault.daemon_dropped").value(), 0u);
}

TEST(ChaosTest, SpillTierKeepsCacheIntactAcrossDaemonRestart) {
  // The daemon-restart guarantee extended to the tiered stack: entries that
  // have been demoted all the way to the SSD-spill tier must stay readable
  // while their owner's daemon is dead (a spill hit is purely local), and a
  // restart must bring cold paths back without disturbing spilled state.
  // Three seeds reshuffle the lossy-link chaos around the kill/restart.
  const std::uint64_t base = fault::fault_seed_from_env(0x5B111F5ull);
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(round) * 1000003ull;
    SCOPED_TRACE("seed " + std::to_string(seed));
    fault::FaultPlan plan;
    plan.with_seed(seed).lossy_links(0.15);
    fault::FaultInjector inj(plan);

    constexpr int kSpillFiles = 6;
    std::vector<Bytes> contents;
    for (int i = 0; i < kSpillFiles; ++i) {
      contents.push_back(testdata::runs_and_noise(3000, 700 + i));
    }
    const Bytes never_content = testdata::text_like(3000, 99);

    mpi::run_world(
        2,
        [&](mpi::Comm& comm) {
          core::Instance::Options opt;
          opt.fs.fetch_timeout_ms = scale_ms(30);
          opt.fs.failover_hops = 1;
          opt.fs.retry.max_attempts = 8;
          opt.fs.retry.base_delay_ms = 1;
          opt.fs.retry.max_delay_ms = 4;
          // Plain tier holds one decompressed file; everything else demotes
          // through to the spill device.
          opt.fs.cache_bytes = 4096;
          opt.fs.spill_bytes = std::size_t{1} << 20;
          opt.fs.promote_after_hits = 1;
          opt.fault = &inj;
          core::Instance inst(comm, opt);
          if (comm.rank() == 1) {
            format::PartitionWriter w;
            const auto& reg = compress::Registry::instance();
            const auto* codec = reg.by_name("lz4");
            for (int i = 0; i < kSpillFiles; ++i) {
              w.add(format::make_record("f" + std::to_string(i), *codec,
                                        reg.id_of(*codec),
                                        as_view(contents[static_cast<std::size_t>(i)])));
            }
            w.add(format::make_record("never", *codec, reg.id_of(*codec),
                                      as_view(never_content)));
            inst.load_partition_blob(as_view(w.serialize()), 0, 1);
          }
          inst.exchange_metadata();
          inst.start_daemon();
          comm.barrier();

          if (comm.rank() == 0) {
            // Warm pass: each read displaces its predecessor down the
            // hierarchy, so f0..f4 end up in the spill tier.
            for (int i = 0; i < kSpillFiles; ++i) {
              const auto got =
                  posixfs::read_file(inst.fs(), "f" + std::to_string(i));
              ASSERT_TRUE(got.has_value()) << "warm read f" << i;
              ASSERT_EQ(*got, contents[static_cast<std::size_t>(i)]);
            }
            ASSERT_TRUE(inst.fs().tiers().spill_contains("f0"));
          }
          comm.barrier();
          inj.kill_daemon(1);
          comm.barrier();
          if (comm.rank() == 0) {
            // Spilled entry: readable while the owner is dead — the crc-
            // verified spill record is local, no daemon involved.
            const auto spill_hits_before =
                inst.metrics().counter("tier.spill.hits").value();
            const auto got = posixfs::read_file(inst.fs(), "f0");
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(*got, contents[0]);
            EXPECT_GT(inst.metrics().counter("tier.spill.hits").value(),
                      spill_hits_before);
            // A file in no local tier stays unreachable until restart.
            EXPECT_EQ(inst.fs().open("never", posixfs::OpenMode::kRead), -EIO);
          }
          comm.barrier();
          inj.revive_daemon(1);
          comm.barrier();
          if (comm.rank() == 0) {
            const auto got = posixfs::read_file(inst.fs(), "never");
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(*got, never_content);
            // Restart did not disturb spilled state: another spilled file
            // still round-trips from its local record.
            ASSERT_TRUE(inst.fs().tiers().spill_contains("f1") ||
                        inst.fs().tiers().spill_contains("f2"));
            const auto f1 = posixfs::read_file(inst.fs(), "f1");
            ASSERT_TRUE(f1.has_value());
            EXPECT_EQ(*f1, contents[1]);
          }
          comm.barrier();
          inst.stop();
        },
        &inj);
    EXPECT_GT(inj.metrics().counter("fault.daemon_dropped").value(), 0u);
  }
}

// Determinism: identical (plan, traffic) -> identical canonical fault
// schedule; a different seed reshuffles it. Traffic is a single scripted
// sender so per-channel order is exactly reproducible.
TEST(ChaosTest, SameSeedProducesIdenticalFaultSchedule) {
  const auto run_scripted = [](std::uint64_t seed) {
    fault::FaultPlan plan;
    plan.seed = seed;
    fault::MessageRule r;
    r.tag = 7;
    r.drop_prob = 0.3;
    r.dup_prob = 0.2;
    r.corrupt_prob = 0.2;
    r.delay_prob = 0.2;
    r.delay_ms = 1;
    plan.messages.push_back(r);
    fault::FaultInjector inj(plan);
    mpi::run_world(
        2,
        [&](mpi::Comm& comm) {
          if (comm.rank() == 0) {
            for (int i = 0; i < 300; ++i) {
              comm.send(1, 7, Bytes(16, static_cast<std::uint8_t>(i)));
            }
          }
          comm.barrier();  // receiver never drains: delivery is the event
        },
        &inj);
    return inj.schedule_dump();
  };

  const std::string first = run_scripted(42);
  const std::string second = run_scripted(42);
  const std::string other = run_scripted(43);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first, other);
}

// The bytes a corruption flips replay too: two senders race into one
// receiver under a corrupt rule, and the dump, flipped offsets included,
// is the same however the two channels interleave.
TEST(ChaosTest, CorruptOffsetsReplayAcrossInterleavedChannels) {
  const auto run_two_channels = [] {
    fault::FaultPlan plan;
    plan.seed = 7;
    fault::MessageRule r;
    r.tag = 7;
    r.corrupt_prob = 0.3;
    plan.messages.push_back(r);
    fault::FaultInjector inj(plan);
    mpi::run_world(
        3,
        [&](mpi::Comm& comm) {
          if (comm.rank() < 2) {
            for (int i = 0; i < 100; ++i) {
              comm.send(2, 7, Bytes(8 + static_cast<std::size_t>(i), 1));
            }
          }
          comm.barrier();  // receiver never drains: delivery is the event
        },
        &inj);
    return inj.schedule_dump();
  };
  const std::string first = run_two_channels();
  EXPECT_NE(first.find("C rule=0 0->2 "), std::string::npos);
  EXPECT_NE(first.find("C rule=0 1->2 "), std::string::npos);
  EXPECT_NE(first.find(" off="), std::string::npos);
  for (int run = 1; run < 20; ++run) {
    ASSERT_EQ(run_two_channels(), first) << "run " << run;
  }
}

// Regression for the mpi timeout paths moving onto util::TimeSource: with a
// ManualTimeSource injected, a faulted run — drops, dups, corruptions, AND
// delayed deliveries that only mature when the test advances virtual time —
// must replay byte-identically: same fault schedule, same delivered
// messages in the same order.
TEST(ChaosTest, FaultedRunReplaysByteIdenticalUnderInjectedClock) {
  const auto run_scripted = [](std::uint64_t seed) {
    fault::FaultPlan plan;
    plan.seed = seed;
    fault::MessageRule r;
    r.tag = 7;
    r.drop_prob = 0.25;
    r.dup_prob = 0.25;
    r.corrupt_prob = 0.25;
    r.delay_prob = 0.25;
    r.delay_ms = 5;
    plan.messages.push_back(r);
    fault::FaultInjector inj(plan);
    util::ManualTimeSource clock;
    std::string transcript;
    mpi::run_world(
        2,
        [&](mpi::Comm& comm) {
          if (comm.rank() == 0) {
            for (int i = 0; i < 200; ++i) {
              comm.send(1, 7, Bytes(8, static_cast<std::uint8_t>(i)));
            }
            comm.barrier();  // every surviving message is now enqueued
          } else {
            comm.barrier();
            // Delayed entries are due at <= 5 ms virtual; advance past
            // them all, then drain in mailbox order.
            clock.advance_ms(50);
            while (auto m = comm.try_recv(0, 7)) {
              for (std::uint8_t b : m->payload) {
                transcript.push_back(static_cast<char>(b));
              }
              transcript.push_back('|');
            }
          }
        },
        &inj, &clock);
    return inj.schedule_dump() + "\n---\n" + transcript;
  };

  const std::string first = run_scripted(42);
  const std::string second = run_scripted(42);
  const std::string other = run_scripted(43);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first, other);
}

TEST(ChaosTest, ChaosFromSeedIsDeterministicAndSurvivable) {
  const auto a = fault::FaultPlan::chaos_from_seed(1234, 3);
  const auto b = fault::FaultPlan::chaos_from_seed(1234, 3);
  EXPECT_EQ(a.seed, b.seed);
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].drop_prob, b.messages[i].drop_prob) << i;
    EXPECT_EQ(a.messages[i].delay_ms, b.messages[i].delay_ms) << i;
    // Survivability: every generated link rule is scoped to the fetch
    // protocol — setup traffic must never be faulted.
    EXPECT_TRUE(a.messages[i].tag == mpi::kTagFetch ||
                a.messages[i].tag_min >= mpi::kFetchReplyTagBase)
        << i;
    EXPECT_LE(a.messages[i].drop_prob, 0.20) << i;
  }
  ASSERT_EQ(a.stragglers.size(), b.stragglers.size());
  ASSERT_EQ(a.daemons.size(), b.daemons.size());
  const auto c = fault::FaultPlan::chaos_from_seed(1235, 3);
  EXPECT_NE(a.messages[0].drop_prob, c.messages[0].drop_prob);
}

TEST(ChaosTest, FaultSeedFromEnvParsesAndFallsBack) {
  unsetenv("FANSTORE_FAULT_SEED");
  EXPECT_EQ(fault::fault_seed_from_env(99), 99u);
  setenv("FANSTORE_FAULT_SEED", "0x10", 1);
  EXPECT_EQ(fault::fault_seed_from_env(99), 16u);
  setenv("FANSTORE_FAULT_SEED", "123", 1);
  EXPECT_EQ(fault::fault_seed_from_env(99), 123u);
  setenv("FANSTORE_FAULT_SEED", "bogus", 1);
  EXPECT_EQ(fault::fault_seed_from_env(99), 99u);
  unsetenv("FANSTORE_FAULT_SEED");
}

}  // namespace
}  // namespace fanstore
