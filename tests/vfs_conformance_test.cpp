// POSIX-surface conformance suite: every Vfs implementation (MemVfs,
// LocalVfs, Interceptor, FanStoreFs, UdsClientVfs over the event server on
// each transport) must
// expose identical open/read/lseek/stat/readdir semantics, because the
// training program on top of the interceptor cannot know which backend it
// is talking to.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <thread>
#include <vector>

#include "compress/registry.hpp"
#include "core/instance.hpp"
#include "ipc/server.hpp"
#include "ipc/uds_client.hpp"
#include "posixfs/interceptor.hpp"
#include "posixfs/local_vfs.hpp"
#include "posixfs/mem_vfs.hpp"
#include "tests/test_data.hpp"

namespace fanstore::posixfs {
namespace {

Bytes content_a() { return testdata::text_like(5000, 11); }
Bytes content_b() { return testdata::runs_and_noise(2400, 12); }

// A backend under test: the Vfs plus its keep-alive machinery.
struct Backend {
  Vfs* vfs = nullptr;
  bool writable = true;
  std::function<void()> cleanup = [] {};
  // Owned state (whichever members the factory fills).
  std::unique_ptr<MemVfs> mem;
  std::unique_ptr<LocalVfs> local;
  std::unique_ptr<Interceptor> shim;
  std::unique_ptr<mpi::World> world;
  std::unique_ptr<core::Instance> instance;
  // ShardedMetadataFanStoreFs: the other ranks of the metadata cluster.
  // Their daemon + cluster service threads answer rank 0's remote lookups
  // for the duration of the test.
  std::vector<std::unique_ptr<core::Instance>> cluster_peers;
  std::unique_ptr<ipc::Server> event_server;
  std::unique_ptr<ipc::UdsClientVfs> client;
};

void populate(Vfs& fs) {
  ASSERT_EQ(write_file(fs, "tree/a.txt", as_view(content_a())), 0);
  ASSERT_EQ(write_file(fs, "tree/sub/b.bin", as_view(content_b())), 0);
}

std::unique_ptr<Backend> make_backend(const std::string& kind) {
  auto b = std::make_unique<Backend>();
  if (kind == "MemVfs") {
    b->mem = std::make_unique<MemVfs>();
    populate(*b->mem);
    b->vfs = b->mem.get();
  } else if (kind == "LocalVfs") {
    const auto root = std::filesystem::temp_directory_path() /
                      ("fanstore_conformance_" + std::to_string(getpid()));
    std::filesystem::remove_all(root);
    b->local = std::make_unique<LocalVfs>(root);
    populate(*b->local);
    b->vfs = b->local.get();
    b->cleanup = [root] { std::filesystem::remove_all(root); };
  } else if (kind == "Interceptor") {
    b->mem = std::make_unique<MemVfs>();
    b->shim = std::make_unique<Interceptor>();
    b->shim->mount("", b->mem.get());
    populate(*b->shim);
    b->vfs = b->shim.get();
  } else if (kind == "FanStoreFs" || kind == "EventFanStore") {
    b->world = std::make_unique<mpi::World>(1);
    b->instance = std::make_unique<core::Instance>(b->world->comm(0),
                                                   core::Instance::Options{});
    const auto& reg = compress::Registry::instance();
    const auto* codec = reg.by_name("lz4hc");
    format::PartitionWriter w;
    w.add(format::make_record("tree/a.txt", *codec, reg.id_of(*codec),
                              as_view(content_a())));
    w.add(format::make_record("tree/sub/b.bin", *codec, reg.id_of(*codec),
                              as_view(content_b())));
    const Bytes blob = w.serialize();
    b->instance->load_partition_blob(as_view(blob), 0);
    b->instance->exchange_metadata();
    b->vfs = &b->instance->fs();
    if (kind == "EventFanStore") {
      // The event server over a warm FanStoreFs: stats, listings and
      // whole-file reads are answered on the loop thread (DESIGN.md §11).
      (void)read_file(b->instance->fs(), "tree/a.txt");
      (void)read_file(b->instance->fs(), "tree/sub/b.bin");
      ipc::ServerOptions opt;
      opt.shards = 2;
      opt.blocker_threads = 2;
      b->event_server = std::make_unique<ipc::Server>(
          std::vector<ipc::Endpoint>{ipc::Endpoint::uds(
              "/tmp/fanstore_conf_evfs_" + std::to_string(getpid()) + ".sock")},
          b->instance->fs(), opt);
      b->event_server->start();
      b->client = std::make_unique<ipc::UdsClientVfs>(
          b->event_server->endpoints().front().to_string());
      b->vfs = b->client.get();
      b->writable = false;  // read-only transport
      auto* server = b->event_server.get();
      b->cleanup = [server] { server->stop(); };
    }
  } else if (kind == "TieredFanStoreFs") {
    // Same facade with the tiered cache stack underneath, budgeted so the
    // dataset is 10x the plain-RAM tier: most reads are served by
    // decompressing a compressed-RAM frame or re-reading a crc-framed
    // spill record, and must still be byte-identical.
    b->world = std::make_unique<mpi::World>(1);
    core::Instance::Options opt;
    opt.fs.cache_bytes = (content_a().size() + content_b().size()) / 10;
    opt.fs.compressed_cache_bytes = 4096;
    opt.fs.spill_bytes = std::size_t{1} << 20;
    opt.fs.promote_after_hits = 2;
    b->instance =
        std::make_unique<core::Instance>(b->world->comm(0), std::move(opt));
    const auto& reg = compress::Registry::instance();
    const auto* chunked = reg.by_name("chunked-16k+lz4");
    const auto* flat = reg.by_name("lz4hc");
    format::PartitionWriter w;
    w.add(format::make_record("tree/a.txt", *chunked, reg.id_of(*chunked),
                              as_view(content_a())));
    w.add(format::make_record("tree/sub/b.bin", *flat, reg.id_of(*flat),
                              as_view(content_b())));
    const Bytes blob = w.serialize();
    b->instance->load_partition_blob(as_view(blob), 0);
    b->instance->exchange_metadata();
    b->vfs = &b->instance->fs();
  } else if (kind == "ShardedMetadataFanStoreFs") {
    // The same facade over a 3-rank metadata cluster with
    // replication_factor 2 < nranks (DESIGN.md §13). The data is loaded on
    // rank 0, but after the rebalance round rank 0 keeps only the metadata
    // shards it owns — stat/open/readdir of the rest must transparently
    // resolve against the owner ranks, byte-identical to every other
    // backend.
    b->world = std::make_unique<mpi::World>(3);
    std::vector<std::unique_ptr<core::Instance>> insts(3);
    auto setup = [&](int r) {
      core::Instance::Options opt;
      opt.cluster.replication_factor = 2;
      insts[static_cast<std::size_t>(r)] =
          std::make_unique<core::Instance>(b->world->comm(r), opt);
      core::Instance& inst = *insts[static_cast<std::size_t>(r)];
      if (r == 0) {
        const auto& reg = compress::Registry::instance();
        const auto* codec = reg.by_name("lz4hc");
        format::PartitionWriter w;
        w.add(format::make_record("tree/a.txt", *codec, reg.id_of(*codec),
                                  as_view(content_a())));
        w.add(format::make_record("tree/sub/b.bin", *codec, reg.id_of(*codec),
                                  as_view(content_b())));
        const Bytes blob = w.serialize();
        inst.load_partition_blob(as_view(blob), 0);
      }
      inst.exchange_metadata();
      inst.start_daemon();
      inst.comm().barrier();
      // Two lockstep rebalance rounds: the first moves shards to their
      // owners and drops the rest from rank 0; the second's digest RPCs
      // guarantee every push has been merged before the tests run.
      for (int round = 0; round < 2; ++round) {
        (void)inst.cluster_node()->rebalance();
        inst.comm().barrier();
      }
    };
    std::thread t1(setup, 1);
    std::thread t2(setup, 2);
    setup(0);
    t1.join();
    t2.join();
    b->instance = std::move(insts[0]);
    b->cluster_peers.push_back(std::move(insts[1]));
    b->cluster_peers.push_back(std::move(insts[2]));
    b->vfs = &b->instance->fs();
  } else if (kind == "EventUds" || kind == "EventTcp") {
    // The socket client, served by the event-driven epoll server
    // (DESIGN.md §11) over each transport — the POSIX surface must be
    // identical.
    b->mem = std::make_unique<MemVfs>();
    populate(*b->mem);
    const ipc::Endpoint ep =
        kind == "EventTcp"
            ? ipc::Endpoint::tcp("127.0.0.1", 0)
            : ipc::Endpoint::uds("/tmp/fanstore_conf_ev_" +
                                 std::to_string(getpid()) + ".sock");
    ipc::ServerOptions opt;
    opt.shards = 2;
    opt.blocker_threads = 2;
    b->event_server = std::make_unique<ipc::Server>(
        std::vector<ipc::Endpoint>{ep}, *b->mem, opt);
    b->event_server->start();
    b->client = std::make_unique<ipc::UdsClientVfs>(
        b->event_server->endpoints().front().to_string());
    b->vfs = b->client.get();
    b->writable = false;  // read-only transport
    auto* server = b->event_server.get();
    b->cleanup = [server] { server->stop(); };
  }
  return b;
}

class VfsConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { backend_ = make_backend(GetParam()); }
  void TearDown() override { backend_->cleanup(); }
  Vfs& fs() { return *backend_->vfs; }
  std::unique_ptr<Backend> backend_;
};

TEST_P(VfsConformanceTest, WholeFileReadMatches) {
  const auto a = read_file(fs(), "tree/a.txt");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, content_a());
  const auto b = read_file(fs(), "tree/sub/b.bin");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, content_b());
}

TEST_P(VfsConformanceTest, PathNormalizationIsUniform) {
  EXPECT_EQ(*read_file(fs(), "/tree//./a.txt"), content_a());
}

TEST_P(VfsConformanceTest, PartialReadsAdvanceOffset) {
  const int fd = fs().open("tree/a.txt", OpenMode::kRead);
  ASSERT_GE(fd, 0);
  Bytes got;
  Bytes buf(997);  // deliberately odd buffer size
  std::int64_t n;
  while ((n = fs().read(fd, MutByteView{buf.data(), buf.size()})) > 0) {
    got.insert(got.end(), buf.begin(), buf.begin() + n);
  }
  EXPECT_EQ(n, 0);  // clean EOF
  EXPECT_EQ(got, content_a());
  EXPECT_EQ(fs().close(fd), 0);
}

TEST_P(VfsConformanceTest, LseekAllWhences) {
  const int fd = fs().open("tree/sub/b.bin", OpenMode::kRead);
  ASSERT_GE(fd, 0);
  const auto expected = content_b();
  EXPECT_EQ(fs().lseek(fd, 100, Whence::kSet), 100);
  Bytes one(1);
  fs().read(fd, MutByteView{one.data(), 1});
  EXPECT_EQ(one[0], expected[100]);
  EXPECT_EQ(fs().lseek(fd, 9, Whence::kCur), 110);
  EXPECT_EQ(fs().lseek(fd, -1, Whence::kEnd),
            static_cast<std::int64_t>(expected.size()) - 1);
  fs().read(fd, MutByteView{one.data(), 1});
  EXPECT_EQ(one[0], expected.back());
  EXPECT_LT(fs().lseek(fd, -10000, Whence::kSet), 0);
  // A refused seek leaves the fd usable, and a target past INT64_MAX is
  // refused rather than wrapped.
  EXPECT_EQ(fs().lseek(fd, 1, Whence::kSet), 1);
  EXPECT_LT(fs().lseek(fd, INT64_MAX, Whence::kCur), 0);
  fs().read(fd, MutByteView{one.data(), 1});
  EXPECT_EQ(one[0], expected[1]);  // the cursor stayed at 1
  fs().close(fd);
}

TEST_P(VfsConformanceTest, StatFileAndDirectory) {
  format::FileStat st;
  ASSERT_EQ(fs().stat("tree/a.txt", &st), 0);
  EXPECT_EQ(st.size, content_a().size());
  EXPECT_EQ(st.type, format::FileType::kRegular);
  ASSERT_EQ(fs().stat("tree/sub", &st), 0);
  EXPECT_EQ(st.type, format::FileType::kDirectory);
  EXPECT_EQ(fs().stat("tree/ghost", &st), -ENOENT);
}

TEST_P(VfsConformanceTest, ReaddirListsChildren) {
  const int h = fs().opendir("tree");
  ASSERT_GE(h, 0);
  std::vector<std::string> names;
  while (auto e = fs().readdir(h)) names.push_back(e->name);
  EXPECT_EQ(fs().closedir(h), 0);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a.txt", "sub"}));
  EXPECT_LT(fs().opendir("nothere"), 0);
}

TEST_P(VfsConformanceTest, BadDescriptorsAreRejected) {
  Bytes buf(8);
  EXPECT_EQ(fs().read(123456, MutByteView{buf.data(), buf.size()}), -EBADF);
  EXPECT_EQ(fs().close(123456), -EBADF);
  EXPECT_EQ(fs().closedir(123456), -EBADF);
  EXPECT_LT(fs().open("tree/ghost", OpenMode::kRead), 0);
}

TEST_P(VfsConformanceTest, WriteRoundTripWhereSupported) {
  if (!backend_->writable) {
    EXPECT_EQ(fs().open("tree/new", OpenMode::kWrite), -EROFS);
    return;
  }
  const Bytes data = testdata::random_bytes(777, 99);
  ASSERT_EQ(write_file(fs(), "out/new.bin", as_view(data)), 0);
  EXPECT_EQ(*read_file(fs(), "out/new.bin"), data);
}

TEST_P(VfsConformanceTest, WritePastTheFileSizeBoundIsRefused) {
  if (!backend_->writable) return;  // read-only transports refuse the open
  const int fd = fs().open("out/far.bin", OpenMode::kWrite);
  ASSERT_GE(fd, 0);
  const Bytes data = testdata::random_bytes(10, 5);
  for (const std::int64_t far :
       {static_cast<std::int64_t>(kMaxFileBytes) - 4, INT64_MAX - 4}) {
    const std::int64_t pos = fs().lseek(fd, far, Whence::kSet);
    if (pos == -EINVAL) {
      // Only the host filesystem behind LocalVfs may refuse the offset
      // already at the seek.
      EXPECT_EQ(GetParam(), "LocalVfs") << far;
      continue;
    }
    ASSERT_EQ(pos, far);
    EXPECT_EQ(fs().write(fd, as_view(data)), -EFBIG) << far;
    EXPECT_EQ(fs().lseek(fd, 0, Whence::kCur), far);  // the cursor stayed
  }
  // The fd still writes normally once it seeks back.
  ASSERT_EQ(fs().lseek(fd, 0, Whence::kSet), 0);
  ASSERT_EQ(fs().write(fd, as_view(data)), 10);
  ASSERT_EQ(fs().close(fd), 0);
  EXPECT_EQ(*read_file(fs(), "out/far.bin"), data);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, VfsConformanceTest,
                         ::testing::Values("MemVfs", "LocalVfs", "Interceptor",
                                           "FanStoreFs", "TieredFanStoreFs",
                                           "ShardedMetadataFanStoreFs",
                                           "EventUds", "EventTcp",
                                           "EventFanStore"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace fanstore::posixfs
