// Tests for the in-process MPI subset: point-to-point matching, predicate
// receive, and collective semantics across rank-threads; and the sealed
// envelope every rank-to-rank message travels in.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <thread>

#include "fault/injector.hpp"
#include "mpi/comm.hpp"
#include "mpi/envelope.hpp"
#include "util/clock.hpp"
#include "util/crc32.hpp"

namespace fanstore::mpi {
namespace {

TEST(MpiTest, SendRecvBasic) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, Bytes{1, 2, 3});
    } else {
      const Message m = comm.recv(0, 7);
      EXPECT_EQ(m.source, 0);
      EXPECT_EQ(m.tag, 7);
      EXPECT_EQ(m.payload, (Bytes{1, 2, 3}));
    }
  });
}

TEST(MpiTest, RecvMatchesTagOutOfOrder) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, Bytes{1});
      comm.send(1, 2, Bytes{2});
    } else {
      // Receive tag 2 first even though tag 1 arrived first.
      EXPECT_EQ(comm.recv(0, 2).payload, Bytes{2});
      EXPECT_EQ(comm.recv(0, 1).payload, Bytes{1});
    }
  });
}

TEST(MpiTest, RecvAnySource) {
  run_world(4, [](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send(0, 5, Bytes{static_cast<std::uint8_t>(comm.rank())});
    } else {
      std::set<std::uint8_t> seen;
      for (int i = 0; i < 3; ++i) seen.insert(comm.recv(kAnySource, 5).payload[0]);
      EXPECT_EQ(seen, (std::set<std::uint8_t>{1, 2, 3}));
    }
  });
}

TEST(MpiTest, TryRecvNonBlocking) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_FALSE(comm.try_recv(1, 9).has_value());
      comm.barrier();  // now rank 1 sends
      comm.barrier();  // send happens-before this barrier completes
      EXPECT_TRUE(comm.try_recv(1, 9).has_value());
    } else {
      comm.barrier();
      comm.send(0, 9, Bytes{1});
      comm.barrier();
    }
  });
}

TEST(MpiTest, RecvIfPredicate) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 100, Bytes{1});
      comm.send(1, 2000, Bytes{2});
    } else {
      // A "daemon-style" predicate that ignores high reply tags.
      const Message m = comm.recv_if([](const Message& msg) { return msg.tag < 1000; });
      EXPECT_EQ(m.tag, 100);
      EXPECT_EQ(comm.recv(0, 2000).payload, Bytes{2});
    }
  });
}

TEST(MpiTest, BarrierSynchronizes) {
  std::atomic<int> phase{0};
  run_world(8, [&](Comm& comm) {
    phase.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(phase.load(), 8);
    comm.barrier();
    phase.fetch_sub(1);
    comm.barrier();
    EXPECT_EQ(phase.load(), 0);
  });
}

TEST(MpiTest, AllgatherCollectsAllRanks) {
  run_world(5, [](Comm& comm) {
    const Bytes mine{static_cast<std::uint8_t>('a' + comm.rank())};
    const auto all = comm.allgather(as_view(mine));
    ASSERT_EQ(all.size(), 5u);
    for (int r = 0; r < 5; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)],
                Bytes{static_cast<std::uint8_t>('a' + r)});
    }
  });
}

TEST(MpiTest, AllgatherRepeatedRounds) {
  // Exercises the generation/reset logic across many back-to-back rounds.
  run_world(4, [](Comm& comm) {
    for (int round = 0; round < 50; ++round) {
      const Bytes mine{static_cast<std::uint8_t>(comm.rank()),
                       static_cast<std::uint8_t>(round)};
      const auto all = comm.allgather(as_view(mine));
      for (int r = 0; r < 4; ++r) {
        ASSERT_EQ(all[static_cast<std::size_t>(r)][0], r);
        ASSERT_EQ(all[static_cast<std::size_t>(r)][1], round);
      }
    }
  });
}

TEST(MpiTest, BcastFromEachRoot) {
  run_world(3, [](Comm& comm) {
    for (int root = 0; root < 3; ++root) {
      const Bytes mine{static_cast<std::uint8_t>(42 + root)};
      const Bytes got = comm.bcast(root, comm.rank() == root ? as_view(mine) : ByteView{});
      EXPECT_EQ(got, Bytes{static_cast<std::uint8_t>(42 + root)});
    }
  });
}

TEST(MpiTest, AllreduceSumAveragesGradients) {
  run_world(4, [](Comm& comm) {
    std::vector<double> grad = {1.0 * comm.rank(), 2.0};
    const auto sum = comm.allreduce_sum(grad);
    EXPECT_DOUBLE_EQ(sum[0], 0.0 + 1 + 2 + 3);
    EXPECT_DOUBLE_EQ(sum[1], 8.0);
  });
}

TEST(MpiTest, AllreduceMax) {
  run_world(6, [](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_max(static_cast<double>(comm.rank())), 5.0);
  });
}

TEST(MpiTest, ExceptionPropagatesFromRank) {
  EXPECT_THROW(run_world(2,
                         [](Comm& comm) {
                           if (comm.rank() == 1) throw std::runtime_error("rank died");
                         }),
               std::runtime_error);
}

TEST(MpiTest, SendToBadRankThrows) {
  EXPECT_THROW(
      run_world(1, [](Comm& comm) { comm.send(5, 0, {}); }), std::out_of_range);
}

TEST(MpiTest, RecvTimeoutExpiresOnInjectedClockNotWallClock) {
  util::ManualTimeSource clock;
  std::atomic<bool> timed_out{false};
  run_world(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 1, Bytes{1});  // "about to block"
          const auto m = comm.recv_timeout(1, 5, 50);
          EXPECT_FALSE(m.has_value());
          timed_out.store(true);
        } else {
          (void)comm.recv(0, 1);
          // Real time passes but virtual time doesn't: the timeout must
          // not fire on its own.
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          EXPECT_FALSE(timed_out.load());
          // Each advance exceeds the 50 ms budget, so once rank 0 has
          // entered recv_timeout its deadline is in the past.
          while (!timed_out.load()) {
            clock.advance_ms(60);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }
      },
      nullptr, &clock);
  EXPECT_TRUE(timed_out.load());
}

TEST(MpiTest, DelayedDeliveryMaturesWithInjectedClock) {
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::MessageRule rule;
  rule.tag = 9;
  rule.delay_prob = 1.0;
  rule.delay_ms = 20;
  plan.messages.push_back(rule);
  fault::FaultInjector inj(plan);
  util::ManualTimeSource clock;
  run_world(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 9, Bytes{42});
          comm.barrier();  // message is enqueued with a future due-time
        } else {
          comm.barrier();
          // Virtual now is 0, due-time is 20 ms: not visible yet no
          // matter how much real time passes.
          EXPECT_FALSE(comm.try_recv(0, 9).has_value());
          clock.advance_ms(25);
          const auto m = comm.recv(0, 9);
          ASSERT_EQ(m.payload.size(), 1u);
          EXPECT_EQ(m.payload[0], 42);
        }
      },
      &inj, &clock);
}

TEST(MpiTest, LargeWorld) {
  // 128 rank-threads; validates scalability of the threading substrate.
  run_world(128, [](Comm& comm) {
    const auto all = comm.allgather(as_view(Bytes{1}));
    EXPECT_EQ(all.size(), 128u);
    comm.barrier();
  });
}

// --- the sealed envelope ------------------------------------------------------

Bytes sealed_message(std::uint32_t reply_tag, std::string_view body) {
  Bytes msg = envelope(reply_tag);
  msg.insert(msg.end(), body.begin(), body.end());
  return seal(std::move(msg));
}

TEST(EnvelopeTest, SealedMessageRoundTrips) {
  const Bytes msg = sealed_message(0x12345678u, "ds/r0/f1");
  ASSERT_EQ(msg.size(), 4u + 8u + 4u);
  const auto got = unseal(as_view(msg));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->reply_tag, 0x12345678u);
  EXPECT_EQ(to_string(got->body), "ds/r0/f1");
  // An empty body is a valid (one-way, reply tag 0) message.
  const Bytes empty = seal(envelope(0));
  ASSERT_TRUE(unseal(as_view(empty)).has_value());
  EXPECT_TRUE(unseal(as_view(empty))->body.empty());
}

TEST(EnvelopeTest, AnySingleBitFlipIsRejected) {
  const Bytes msg = sealed_message(kFetchReplyTagBase + 17, "a body of some bytes");
  const std::size_t body_end = msg.size() - 4;
  for (std::size_t bit = 0; bit < msg.size() * 8; ++bit) {
    const std::size_t byte = bit / 8;
    const char* where = byte < 4 ? "reply tag" : byte < body_end ? "body" : "crc";
    Bytes flipped = msg;
    flipped[byte] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(unseal(as_view(flipped)).has_value())
        << "bit " << bit << " (" << where << ") flipped and still unsealed";
  }
}

TEST(EnvelopeTest, ShortAndTruncatedMessagesAreRejected) {
  const Bytes msg = sealed_message(1001, "xyz");
  for (std::size_t n = 0; n < msg.size(); ++n) {
    EXPECT_FALSE(unseal(ByteView(msg).first(n)).has_value()) << n << " bytes";
  }
}

TEST(EnvelopeTest, ClaimedReplyTagNeverAddressesARequestTag) {
  EXPECT_EQ(claimed_reply_tag(as_view(sealed_message(kFetchReplyTagBase + 3, "p"))),
            static_cast<std::uint32_t>(kFetchReplyTagBase + 3));
  EXPECT_EQ(claimed_reply_tag(as_view(sealed_message(kTagFetch, "p"))), 0u);
  EXPECT_EQ(claimed_reply_tag(as_view(Bytes{1, 2})), 0u);
}

// One thread drives both ranks: call() pumps, and the pump plays rank 1.
TEST(EnvelopeTest, CallReturnsOnlyAVerifiedReply) {
  World world(2);
  Comm client = world.comm(0);
  Comm server = world.comm(1);
  Caller caller(client, kClusterReplyTagBase);
  constexpr int kTag = 42;

  // `mangle` edits the answer after it was sealed.
  const auto serve_with = [&](const std::function<void(Bytes&)>& mangle) {
    return [&, mangle] {
      const auto req = server.try_recv(0, kTag);
      if (!req) return;
      const auto sealed = unseal(as_view(req->payload));
      ASSERT_TRUE(sealed.has_value());
      Bytes answer = envelope(sealed->reply_tag);
      answer.insert(answer.end(), sealed->body.rbegin(), sealed->body.rend());
      answer = seal(std::move(answer));
      mangle(answer);
      server.send(0, static_cast<int>(sealed->reply_tag), std::move(answer));
    };
  };

  Reply r = caller.call(1, kTag, as_view(std::string("abc")),
                        Wait{0, serve_with([](Bytes&) {})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(r.body()), "cba");

  r = caller.call(1, kTag, as_view(std::string("abc")),
                  Wait{0, serve_with([](Bytes& m) { m[4] ^= 1; })});
  EXPECT_EQ(r.status, CallStatus::kCorrupt);
  EXPECT_TRUE(r.body().empty());

  // A reply that verifies but answers another call's tag is corrupt too.
  r = caller.call(1, kTag, as_view(std::string("abc")), Wait{0, serve_with([](Bytes& m) {
                    store_le<std::uint32_t>(m.data(), load_le<std::uint32_t>(m.data()) + 1);
                    const std::uint32_t crc = crc32(ByteView(m).first(m.size() - 4));
                    store_le<std::uint32_t>(m.data() + m.size() - 4, crc);
                  })});
  EXPECT_EQ(r.status, CallStatus::kCorrupt);

  // Nobody answers: the pump budget is the timeout.
  int pumps = 0;
  r = caller.call(1, kTag + 1, {}, Wait{0, [&] { ++pumps; }});
  EXPECT_EQ(r.status, CallStatus::kTimeout);
  EXPECT_EQ(pumps, kPumpBudget);
}

}  // namespace
}  // namespace fanstore::mpi
