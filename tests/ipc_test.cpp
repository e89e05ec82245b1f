// Tests for the daemon's socket front door: protocol encode/decode, the
// event server's lifecycle on a Unix-domain socket, cross-"process" reads
// through a real socket, and which thread answers each request.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "compress/registry.hpp"
#include "core/instance.hpp"
#include "ipc/protocol.hpp"
#include "ipc/server.hpp"
#include "ipc/transport.hpp"
#include "ipc/uds_client.hpp"
#include "posixfs/mem_vfs.hpp"
#include "tests/test_data.hpp"

namespace fanstore::ipc {
namespace {

std::string unique_socket_path(const char* tag) {
  return "/tmp/fanstore_uds_" + std::to_string(getpid()) + "_" + tag + ".sock";
}

TEST(IpcProtocolTest, RequestRoundTrip) {
  const Bytes req = encode_request(Op::kGet, "a/b/c");
  const auto decoded = decode_request(as_view(req));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, Op::kGet);
  EXPECT_EQ(decoded->path, "a/b/c");
  EXPECT_FALSE(decode_request(ByteView{}).has_value());
  EXPECT_FALSE(decode_request(as_view(Bytes{99})).has_value());  // bad op
}

TEST(IpcProtocolTest, ReplyRoundTrips) {
  // A get reply on the wire is its head followed by the file; the frame's
  // payload decodes back to the status and a view of the file.
  const Bytes payload = testdata::random_bytes(1000, 1);
  Bytes framed = encode_get_reply_head(Status::kOk, payload.size());
  framed.insert(framed.end(), payload.begin(), payload.end());
  ASSERT_EQ(load_le<std::uint32_t>(framed.data()), 1 + payload.size());
  const auto get = decode_get_reply(as_view(framed).subspan(4));
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(get->status, Status::kOk);
  EXPECT_EQ(Bytes(get->data.begin(), get->data.end()), payload);
  const Bytes empty = encode_get_reply_head(Status::kNotFound, 0);
  ASSERT_EQ(empty.size(), 5u);
  const auto missing = decode_get_reply(as_view(empty).subspan(4));
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, Status::kNotFound);
  EXPECT_TRUE(missing->data.empty());

  format::FileStat st;
  st.size = 777;
  st.type = format::FileType::kRegular;
  const auto stat = decode_stat_reply(as_view(encode_stat_reply(Status::kOk, st)));
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->stat.size, 777u);

  std::vector<posixfs::Dirent> entries = {
      {"file.txt", format::FileType::kRegular},
      {"subdir", format::FileType::kDirectory},
  };
  const auto list = decode_list_reply(as_view(encode_list_reply(Status::kOk, entries)));
  ASSERT_TRUE(list.has_value());
  ASSERT_EQ(list->entries.size(), 2u);
  EXPECT_EQ(list->entries[0].name, "file.txt");
  EXPECT_EQ(list->entries[1].type, format::FileType::kDirectory);
  EXPECT_FALSE(decode_list_reply(as_view(Bytes{0, 9, 9})).has_value());
}

// An event server over `vfs` on this test's socket for `tag` (the same
// path for the same tag), started.
std::unique_ptr<Server> serve(posixfs::Vfs& vfs, const char* tag,
                              ServerOptions so = {}) {
  so.shards = 1;
  so.blocker_threads = 2;
  auto server = std::make_unique<Server>(
      std::vector<Endpoint>{Endpoint::uds(unique_socket_path(tag))}, vfs, so);
  server->start();
  return server;
}

TEST(UdsTest, LseekSemanticsOnClient) {
  posixfs::MemVfs fs;
  posixfs::write_file(fs, "f", as_view(Bytes{0, 1, 2, 3, 4, 5, 6, 7}));
  auto server = serve(fs, "seek");
  UdsClientVfs client(server->endpoints()[0].to_string());
  const int fd = client.open("f", posixfs::OpenMode::kRead);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(client.lseek(fd, -2, posixfs::Whence::kEnd), 6);
  Bytes buf(4);
  EXPECT_EQ(client.read(fd, MutByteView{buf.data(), buf.size()}), 2);
  EXPECT_EQ(buf[0], 6);
  client.close(fd);
  server->stop();
}

TEST(UdsTest, ConcurrentClients) {
  posixfs::MemVfs fs;
  for (int i = 0; i < 8; ++i) {
    posixfs::write_file(fs, "f" + std::to_string(i),
                        as_view(testdata::random_bytes(5000, i)));
  }
  auto server = serve(fs, "multi");
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      UdsClientVfs client(server->endpoints()[0].to_string());
      for (int i = 0; i < 20; ++i) {
        const std::string path = "f" + std::to_string((c + i) % 8);
        const auto got = posixfs::read_file(client, path);
        if (!got || got->size() != 5000) failures++;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server->requests_served(), 120u);
  server->stop();
}

TEST(UdsTest, ClientFailsCleanlyWithoutServer) {
  UdsClientVfs client("/tmp/fanstore_uds_no_such_socket.sock");
  EXPECT_FALSE(client.connect());
  EXPECT_EQ(client.open("f", posixfs::OpenMode::kRead), -EIO);
  format::FileStat st;
  EXPECT_EQ(client.stat("f", &st), -EIO);
}

TEST(UdsTest, ServesAFanStoreInstance) {
  // The real deployment shape: FanStoreFs behind the node-local daemon
  // socket; an out-of-process consumer reads compressed data through it.
  mpi::run_world(1, [&](mpi::Comm& comm) {
    core::Instance inst(comm, {});
    const auto& reg = compress::Registry::instance();
    const auto* codec = reg.by_name("zstd");
    format::PartitionWriter w;
    const Bytes data = testdata::text_like(30000, 9);
    w.add(format::make_record("ds/sample", *codec, reg.id_of(*codec), as_view(data)));
    const Bytes blob = w.serialize();
    inst.load_partition_blob(as_view(blob), 0);
    inst.exchange_metadata();

    auto server = serve(inst.fs(), "fanstore");
    UdsClientVfs client(server->endpoints()[0].to_string());
    const auto got = posixfs::read_file(client, "ds/sample");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, data);  // decompressed by the daemon, shipped plain
    server->stop();
  });
}

TEST(UdsTest, StopIsIdempotentAndRestartable) {
  posixfs::MemVfs fs;
  posixfs::write_file(fs, "x", as_view(Bytes{5, 6}));
  {
    auto server = serve(fs, "restart");
    server->stop();
    server->stop();
  }
  // A new server binds the path the old one served; clients reach it.
  auto server2 = serve(fs, "restart");
  EXPECT_EQ(server2->endpoints()[0].path, unique_socket_path("restart"));
  UdsClientVfs client(server2->endpoints()[0].to_string());
  EXPECT_EQ(posixfs::read_file(client, "x"), (Bytes{5, 6}));
  server2->stop();
}

// --- The loop-thread fast path (DESIGN.md §11) ----------------------------
//
// ipc::Server asks Vfs::try_serve on the shard loop first; FanStoreFs
// answers stats, listings and resident verified hits there and reports
// "would block" for everything else, which a blocker then serves. These
// tests pin down which path each request takes and that both give the
// same bytes and the same counts.

// Forwards every call to `inner` but keeps the default try_serve, so a
// server over it sends every request to a blocker.
class BlockingOnly final : public posixfs::Vfs {
 public:
  explicit BlockingOnly(posixfs::Vfs& inner) : inner_(inner) {}
  int open(std::string_view p, posixfs::OpenMode m) override { return inner_.open(p, m); }
  int close(int fd) override { return inner_.close(fd); }
  std::int64_t read(int fd, MutByteView b) override { return inner_.read(fd, b); }
  std::int64_t write(int fd, ByteView b) override { return inner_.write(fd, b); }
  std::int64_t lseek(int fd, std::int64_t o, posixfs::Whence w) override {
    return inner_.lseek(fd, o, w);
  }
  int stat(std::string_view p, format::FileStat* out) override { return inner_.stat(p, out); }
  int opendir(std::string_view p) override { return inner_.opendir(p); }
  std::optional<posixfs::Dirent> readdir(int h) override { return inner_.readdir(h); }
  int closedir(int h) override { return inner_.closedir(h); }

 private:
  posixfs::Vfs& inner_;
};

Bytes one_partition(const std::vector<std::pair<std::string, Bytes>>& files,
                    const char* codec_name) {
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name(codec_name);
  format::PartitionWriter w;
  for (const auto& [path, data] : files) {
    w.add(format::make_record(path, *codec, reg.id_of(*codec), as_view(data)));
  }
  return w.serialize();
}

std::uint64_t counter(core::Instance& inst, const char* name) {
  return inst.metrics().counter(name).value();
}

// An event server over `vfs` that records into `inst`'s registry.
std::unique_ptr<Server> serve(core::Instance& inst, posixfs::Vfs& vfs,
                              const char* tag, ServerOptions so = {}) {
  so.metrics = &inst.metrics();
  return serve(vfs, tag, so);
}

TEST(IpcLoopPathTest, WarmHitsStatsAndListingsAreServedOnTheLoop) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    core::Instance inst(comm, {});
    const Bytes data = testdata::text_like(40000, 3);
    inst.load_partition_blob(as_view(one_partition({{"ds/a", data}}, "lz4hc")), 0);
    inst.exchange_metadata();
    ASSERT_TRUE(posixfs::read_file(inst.fs(), "ds/a").has_value());  // warm
    auto server = serve(inst, inst.fs(), "loop_warm");
    UdsClientVfs client(server->endpoints()[0].to_string());
    const std::uint64_t before = counter(inst, "ipc.loop_served");
    const auto got = posixfs::read_file(client, "ds/a");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, data);
    format::FileStat st;
    ASSERT_EQ(client.stat("ds/a", &st), 0);
    EXPECT_EQ(st.size, data.size());
    EXPECT_EQ(client.stat("ds/missing", &st), -ENOENT);
    const int h = client.opendir("ds");
    ASSERT_GE(h, 0);
    const auto e = client.readdir(h);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->name, "a");
    client.closedir(h);
    EXPECT_EQ(counter(inst, "ipc.loop_served") - before, 4u);
    server->stop();
    // The reply's pin is gone with the connection.
    EXPECT_EQ(inst.fs().tiers().plain().open_count("ds/a"), 0);
  });
}

TEST(IpcLoopPathTest, StatsReportShowsTheLoopServedShare) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    core::Instance::Options opt;
    opt.serve_endpoints = {"unix:" + unique_socket_path("report")};
    core::Instance inst(comm, opt);
    const Bytes data = testdata::text_like(5000, 8);
    inst.load_partition_blob(as_view(one_partition({{"ds/r", data}}, "lz4")), 0);
    inst.exchange_metadata();
    inst.start_daemon();
    UdsClientVfs client(inst.ipc_server()->endpoints()[0].to_string());
    ASSERT_TRUE(posixfs::read_file(client, "ds/r").has_value());  // blocker: cold
    ASSERT_TRUE(posixfs::read_file(client, "ds/r").has_value());  // loop: a hit
    const std::string report = inst.stats_report();
    EXPECT_NE(report.find("socket requests=2 loop_served=50.0%"), std::string::npos)
        << report;
    inst.stop();
  });
}

TEST(IpcLoopPathTest, NonResidentGetGoesToABlocker) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    core::Instance inst(comm, {});
    const Bytes data = testdata::runs_and_noise(30000, 4);
    inst.load_partition_blob(as_view(one_partition({{"ds/cold", data}}, "lz4")), 0);
    inst.exchange_metadata();
    auto server = serve(inst, inst.fs(), "loop_cold");
    UdsClientVfs client(server->endpoints()[0].to_string());
    const auto cold = posixfs::read_file(client, "ds/cold");
    ASSERT_TRUE(cold.has_value());
    EXPECT_EQ(*cold, data);
    EXPECT_EQ(counter(inst, "ipc.loop_served"), 0u);  // the load ran on a blocker
    EXPECT_EQ(counter(inst, "cache.misses"), 1u);
    const auto warm = posixfs::read_file(client, "ds/cold");
    ASSERT_TRUE(warm.has_value());
    EXPECT_EQ(*warm, *cold);
    EXPECT_EQ(counter(inst, "ipc.loop_served"), 1u);  // now resident
    server->stop();
  });
}

TEST(IpcLoopPathTest, UnverifiedChunkedEntryGoesToABlocker) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    core::Instance::Options opt;
    opt.fs.lazy_chunked_open = true;
    core::Instance inst(comm, opt);
    const Bytes data = testdata::text_like(80000, 5);
    inst.load_partition_blob(
        as_view(one_partition({{"ds/lazy", data}}, "chunked-16k+lz4")), 0);
    inst.exchange_metadata();
    // A lazy open decodes one chunk: the entry is resident but neither
    // fully decoded nor crc-checked.
    const int fd = inst.fs().open("ds/lazy", posixfs::OpenMode::kRead);
    ASSERT_GE(fd, 0);
    Bytes buf(100);
    ASSERT_EQ(inst.fs().pread(fd, MutByteView(buf.data(), buf.size()), 20000), 100);
    inst.fs().close(fd);
    ASSERT_TRUE(inst.fs().tiers().contains("ds/lazy"));
    auto server = serve(inst, inst.fs(), "loop_lazy");
    UdsClientVfs client(server->endpoints()[0].to_string());
    const auto got = posixfs::read_file(client, "ds/lazy");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, data);
    EXPECT_EQ(counter(inst, "ipc.loop_served"), 0u);
    EXPECT_EQ(counter(inst, "ipc.requests"), 1u);
    // That read decoded every missing chunk and so ran the whole-file crc
    // check: the entry is verified now, and the next get is a loop hit.
    const auto again = posixfs::read_file(client, "ds/lazy");
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, data);
    EXPECT_EQ(counter(inst, "ipc.loop_served"), 1u);
    EXPECT_EQ(counter(inst, "ipc.requests"), 2u);
    server->stop();
  });
}

TEST(IpcLoopPathTest, ShardedRemoteOnlyStatGoesToABlocker) {
  // Two ranks, one owner per metadata shard: rank 0's store misses every
  // path whose shard rank 1 owns, and only resolve()'s RPC can answer.
  std::vector<std::pair<std::string, Bytes>> files;
  for (int i = 0; i < 16; ++i) {
    files.emplace_back("ds/f" + std::to_string(i), testdata::random_bytes(300 + i, i));
  }
  const Bytes part = one_partition(files, "store");
  mpi::run_world(2, [&](mpi::Comm& comm) {
    core::Instance::Options opt;
    opt.cluster.replication_factor = 1;
    core::Instance inst(comm, opt);
    if (comm.rank() == 0) inst.load_partition_blob(as_view(part), 0);
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();
    // Lockstep rebalance rounds: rank 0 keeps only the shards it owns.
    for (int round = 0; round < 2; ++round) {
      (void)inst.cluster_node()->rebalance();
      comm.barrier();
    }
    if (comm.rank() == 0) {
      ASSERT_TRUE(inst.cluster_node()->sharded());
      std::string remote_only, local;
      for (const auto& [path, data] : files) {
        const bool here = inst.metadata().lookup(path).has_value();
        if (!here && remote_only.empty()) remote_only = path;
        if (here && local.empty()) local = path;
      }
      ASSERT_FALSE(remote_only.empty());
      ASSERT_FALSE(local.empty());
      auto server = serve(inst, inst.fs(), "loop_sharded");
      UdsClientVfs client(server->endpoints()[0].to_string());
      format::FileStat want;
      ASSERT_EQ(inst.fs().stat(remote_only, &want), 0);
      const std::uint64_t before = counter(inst, "ipc.loop_served");
      format::FileStat got;
      ASSERT_EQ(client.stat(remote_only, &got), 0);
      EXPECT_EQ(got.size, want.size);
      EXPECT_EQ(got.crc, want.crc);
      EXPECT_EQ(counter(inst, "ipc.loop_served"), before);  // went to a blocker
      ASSERT_EQ(client.stat(local, &got), 0);  // a local hit stays on the loop
      EXPECT_EQ(counter(inst, "ipc.loop_served"), before + 1);
      const int h = client.opendir("ds");  // a sharded listing is a union
      ASSERT_GE(h, 0);
      std::size_t n = 0;
      while (client.readdir(h)) ++n;
      EXPECT_EQ(n, files.size());
      EXPECT_EQ(counter(inst, "ipc.loop_served"), before + 1);
      server->stop();
    }
    comm.barrier();
    inst.stop();
  });
}

TEST(IpcLoopPathTest, LoopAndBlockerServedRequestsCountAlike) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    core::Instance inst(comm, {});
    const Bytes data = testdata::text_like(20000, 6);
    inst.load_partition_blob(as_view(one_partition({{"ds/c", data}}, "lz4hc")), 0);
    inst.exchange_metadata();
    ASSERT_TRUE(posixfs::read_file(inst.fs(), "ds/c").has_value());  // warm
    BlockingOnly blocking(inst.fs());
    auto loop_server = serve(inst, inst.fs(), "count_loop");
    auto blocker_server = serve(inst, blocking, "count_blocker");
    const char* const kNames[] = {"fs.opens", "cache.hits", "cache.misses",
                                  "fs.bytes_read", "ipc.requests", "ipc.bytes_out",
                                  "fs.open_us", "fs.read_us"};
    // Counters, and for the histograms their sample counts.
    const auto value = [&](const char* name) {
      const std::string_view n(name);
      return n.ends_with("_us") ? inst.metrics().histogram(name).count()
                                : counter(inst, name);
    };
    // Deltas of one get + one stat + one listing through a client of
    // `server`, taken once the server has closed the connection: it reads
    // the client's EOF only after sending every reply, so every reply
    // byte is counted by then.
    const auto deltas = [&](Server& server) {
      std::vector<std::uint64_t> before;
      for (const char* n : kNames) before.push_back(value(n));
      {
        UdsClientVfs client(server.endpoints()[0].to_string());
        const auto got = posixfs::read_file(client, "ds/c");
        EXPECT_TRUE(got.has_value() && *got == data);
        format::FileStat st;
        EXPECT_EQ(client.stat("ds/c", &st), 0);
        const int h = client.opendir("ds");
        EXPECT_GE(h, 0);
        while (client.readdir(h)) {
        }
        client.closedir(h);
      }
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (server.connections_open() > 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_EQ(server.connections_open(), 0);
      std::vector<std::uint64_t> d;
      for (std::size_t i = 0; i < before.size(); ++i) {
        d.push_back(value(kNames[i]) - before[i]);
      }
      return d;
    };
    const std::uint64_t loop_before = counter(inst, "ipc.loop_served");
    const auto a = deltas(*loop_server);
    EXPECT_EQ(counter(inst, "ipc.loop_served") - loop_before, 3u);
    const auto b = deltas(*blocker_server);
    EXPECT_EQ(counter(inst, "ipc.loop_served") - loop_before, 3u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << kNames[i];
    }
    EXPECT_EQ(a[0], 1u);  // fs.opens
    EXPECT_EQ(a[1], 1u);  // cache.hits
    EXPECT_EQ(a[4], 3u);  // ipc.requests
    EXPECT_EQ(a[7], 1u);  // fs.read_us: one read() of the 20000-byte file
    loop_server->stop();
    blocker_server->stop();
  });
}

TEST(IpcLoopPathTest, EntryEvictedWhileQueuedForASlowReaderStaysIntact) {
  // A reader pipelines gets of one large file and reads nothing, so a
  // reply queues past the write high-water mark with the entry pinned.
  // The entry is then invalidated and the cache churned; every reply
  // byte must still arrive intact (ASan reports any use after free).
  // Gets read after the invalidation go to a blocker.
  mpi::run_world(1, [&](mpi::Comm& comm) {
    core::Instance::Options opt;
    opt.fs.cache_bytes = 3u << 20;
    core::Instance inst(comm, opt);
    const Bytes big = testdata::random_bytes(1u << 20, 7);
    std::vector<std::pair<std::string, Bytes>> files = {{"ds/big", big}};
    for (int i = 0; i < 8; ++i) {
      files.emplace_back("ds/other" + std::to_string(i),
                         testdata::random_bytes(512u << 10, 100 + i));
    }
    inst.load_partition_blob(as_view(one_partition(files, "store")), 0);
    inst.exchange_metadata();
    ASSERT_TRUE(posixfs::read_file(inst.fs(), "ds/big").has_value());  // warm
    ServerOptions so;
    so.write_high_water = 256u << 10;
    auto server = serve(inst, inst.fs(), "slow_reader", so);
    const int fd = transport_connect(server->endpoints()[0]);
    ASSERT_GE(fd, 0);
    constexpr int kGets = 6;
    const Bytes req = encode_request(Op::kGet, "ds/big");
    for (int i = 0; i < kGets; ++i) ASSERT_TRUE(write_frame(fd, as_view(req)));
    // Wait until a reply is queued behind the full socket: the server has
    // stopped reading (backpressure) with the entry pinned by that reply.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (counter(inst, "ipc.backpressure_pauses") == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(counter(inst, "ipc.backpressure_pauses"), 1u);
    EXPECT_GE(counter(inst, "ipc.loop_served"), 1u);
    EXPECT_GT(inst.fs().tiers().plain().open_count("ds/big"), 0);
    inst.fs().tiers().invalidate("ds/big");
    for (int i = 0; i < 8; ++i) {
      const auto other = posixfs::read_file(inst.fs(), "ds/other" + std::to_string(i));
      ASSERT_TRUE(other.has_value());
    }
    for (int i = 0; i < kGets; ++i) {
      const auto frame = read_frame(fd);
      ASSERT_TRUE(frame.has_value());
      const auto reply = decode_get_reply(as_view(*frame));
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->status, Status::kOk);
      EXPECT_EQ(Bytes(reply->data.begin(), reply->data.end()), big) << "reply " << i;
    }
    ::close(fd);
    // The loop drops each pin as its frame's last byte leaves (the last
    // one erases the invalidated entry; a later blocker get may have
    // loaded a fresh one): no pin outlives its reply.
    const auto unpin_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (inst.fs().tiers().plain().open_count("ds/big") > 0 &&
           std::chrono::steady_clock::now() < unpin_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(inst.fs().tiers().plain().open_count("ds/big"), 0);
    server->stop();
  });
}

TEST(IpcLoopPathTest, GetsWithASpillTierGoToABlocker) {
  // With a spill tier, a pin's release that evicts may write the spill
  // device, so no pin may drop on the loop thread: every get goes to a
  // blocker, which copies the file out and releases it at once. Replies
  // queued for a backpressured reader then hold no pin while the cache
  // churns through the spill tier. Stats stay on the loop.
  mpi::run_world(1, [&](mpi::Comm& comm) {
    core::Instance::Options opt;
    opt.fs.cache_bytes = 3u << 20;
    opt.fs.spill_bytes = 16u << 20;
    core::Instance inst(comm, opt);
    const Bytes big = testdata::random_bytes(1u << 20, 17);
    std::vector<std::pair<std::string, Bytes>> files = {{"ds/big", big}};
    for (int i = 0; i < 8; ++i) {
      files.emplace_back("ds/other" + std::to_string(i),
                         testdata::random_bytes(512u << 10, 200 + i));
    }
    inst.load_partition_blob(as_view(one_partition(files, "store")), 0);
    inst.exchange_metadata();
    ASSERT_TRUE(posixfs::read_file(inst.fs(), "ds/big").has_value());  // warm
    ServerOptions so;
    so.write_high_water = 256u << 10;
    auto server = serve(inst, inst.fs(), "spill_reader", so);
    const int fd = transport_connect(server->endpoints()[0]);
    ASSERT_GE(fd, 0);
    constexpr int kGets = 6;
    const Bytes req = encode_request(Op::kGet, "ds/big");
    for (int i = 0; i < kGets; ++i) ASSERT_TRUE(write_frame(fd, as_view(req)));
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (counter(inst, "ipc.backpressure_pauses") == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(counter(inst, "ipc.backpressure_pauses"), 1u);
    EXPECT_EQ(counter(inst, "ipc.loop_served"), 0u);
    // A blocker may still be reading the next get; once it is done, the
    // queued replies pin nothing (loop-served ones would, for good).
    const auto unpin_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (inst.fs().tiers().plain().open_count("ds/big") > 0 &&
           std::chrono::steady_clock::now() < unpin_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(inst.fs().tiers().plain().open_count("ds/big"), 0);
    for (int i = 0; i < 8; ++i) {
      const auto other = posixfs::read_file(inst.fs(), "ds/other" + std::to_string(i));
      ASSERT_TRUE(other.has_value());
    }
    EXPECT_GT(counter(inst, "tier.spill.demotes"), 0u);
    for (int i = 0; i < kGets; ++i) {
      const auto frame = read_frame(fd);
      ASSERT_TRUE(frame.has_value());
      const auto reply = decode_get_reply(as_view(*frame));
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->status, Status::kOk);
      EXPECT_EQ(Bytes(reply->data.begin(), reply->data.end()), big) << "reply " << i;
    }
    ::close(fd);
    EXPECT_EQ(counter(inst, "ipc.loop_served"), 0u);
    UdsClientVfs client(server->endpoints()[0].to_string());
    format::FileStat st;
    ASSERT_EQ(client.stat("ds/big", &st), 0);
    EXPECT_EQ(st.size, big.size());
    EXPECT_EQ(counter(inst, "ipc.loop_served"), 1u);  // the stat
    server->stop();
  });
}

}  // namespace
}  // namespace fanstore::ipc
