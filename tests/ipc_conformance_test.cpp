// Socket-level conformance suite for the daemon front door, run against
// every server flavour (legacy thread-per-connection UDS, event-driven
// over UDS and over TCP loopback serving a MemVfs, and event-driven over
// UDS serving a warm FanStoreFs, which answers on the loop thread):
// hostile and half-broken
// clients — truncated frames, oversized declared lengths, garbage headers,
// byte-at-a-time dribbling, silent connections — must produce a clean
// error reply or a closed connection, never a hang, an fd leak, or a
// crash, and the server must keep serving well-formed clients throughout.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "compress/registry.hpp"
#include "core/instance.hpp"
#include "ipc/protocol.hpp"
#include "ipc/server.hpp"
#include "ipc/transport.hpp"
#include "ipc/uds_client.hpp"
#include "ipc/uds_server.hpp"
#include "posixfs/mem_vfs.hpp"
#include "tests/sanitizer_env.hpp"
#include "tests/test_data.hpp"
#include "util/bytes.hpp"

namespace fanstore::ipc {
namespace {

constexpr int scale_ms(int ms) {
  return testsupport::kUnderSanitizer ? ms * 5 : ms;
}

std::string unique_socket_path(const char* tag) {
  return "/tmp/fanstore_conf_" + std::to_string(getpid()) + "_" + tag + ".sock";
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

// Raw client socket with send/recv timeouts so a misbehaving *server*
// fails the test instead of hanging it.
int raw_connect(const std::string& spec) {
  const auto ep = Endpoint::parse(spec);
  if (!ep.has_value()) return -1;
  const int fd = transport_connect(*ep);
  if (fd < 0) return fd;
  timeval tv{};
  tv.tv_sec = scale_ms(5000) / 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  return fd;
}

bool send_all(int fd, ByteView data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

enum class Flavor { kLegacy, kEventUds, kEventTcp, kEventFanStore };

const char* flavor_name(Flavor f) {
  switch (f) {
    case Flavor::kLegacy: return "legacy";
    case Flavor::kEventUds: return "event_uds";
    case Flavor::kEventTcp: return "event_tcp";
    case Flavor::kEventFanStore: return "event_fanstore";
  }
  return "?";
}

// One running server of the given flavour over a MemVfs (or, for
// kEventFanStore, a warm one-rank FanStoreFs) with known files.
class Harness {
 public:
  explicit Harness(Flavor flavor, ServerOptions options = {}) : flavor_(flavor) {
    posixfs::write_file(fs_, "ds/small", as_view(small_));
    posixfs::write_file(fs_, "ds/big", as_view(big_));
    posixfs::Vfs* served = &fs_;
    if (flavor == Flavor::kEventFanStore) {
      world_ = std::make_unique<mpi::World>(1);
      instance_ = std::make_unique<core::Instance>(world_->comm(0),
                                                   core::Instance::Options{});
      const auto& reg = compress::Registry::instance();
      const auto* codec = reg.by_name("lz4");
      format::PartitionWriter w;
      w.add(format::make_record("ds/small", *codec, reg.id_of(*codec), as_view(small_)));
      w.add(format::make_record("ds/big", *codec, reg.id_of(*codec), as_view(big_)));
      instance_->load_partition_blob(as_view(w.serialize()), 0);
      instance_->exchange_metadata();
      (void)posixfs::read_file(instance_->fs(), "ds/small");  // warm
      (void)posixfs::read_file(instance_->fs(), "ds/big");
      served = &instance_->fs();
    }
    switch (flavor) {
      case Flavor::kLegacy: {
        spec_ = unique_socket_path("legacy");
        legacy_ = std::make_unique<UdsServer>(spec_, fs_);
        legacy_->start();
        break;
      }
      case Flavor::kEventUds:
      case Flavor::kEventTcp:
      case Flavor::kEventFanStore: {
        // Small fixed thread counts: the point of the event server is that
        // client count is independent of thread count.
        if (options.shards == 0) options.shards = 2;
        if (options.blocker_threads == 0) options.blocker_threads = 2;
        const Endpoint ep = flavor == Flavor::kEventTcp
                                ? Endpoint::tcp("127.0.0.1", 0)
                                : Endpoint::uds(unique_socket_path("event"));
        server_ = std::make_unique<Server>(std::vector<Endpoint>{ep}, *served,
                                           options);
        server_->start();
        spec_ = server_->endpoints()[0].to_string();
        break;
      }
    }
  }

  const std::string& spec() const { return spec_; }
  const Bytes& small() const { return small_; }
  const Bytes& big() const { return big_; }
  Server* event_server() { return server_.get(); }

  void stop() {
    if (legacy_) legacy_->stop();
    if (server_) server_->stop();
  }

  // The canary: a fresh well-formed client still gets correct bytes.
  void expect_still_serving() {
    UdsClientVfs client(spec_);
    const auto got = posixfs::read_file(client, "ds/small");
    ASSERT_TRUE(got.has_value()) << flavor_name(flavor_) << " stopped serving";
    EXPECT_EQ(*got, small_);
  }

 private:
  Flavor flavor_;
  posixfs::MemVfs fs_;
  std::unique_ptr<mpi::World> world_;         // kEventFanStore
  std::unique_ptr<core::Instance> instance_;  // kEventFanStore
  Bytes small_ = testdata::random_bytes(512, 7);
  Bytes big_ = testdata::random_bytes(256 << 10, 8);
  std::unique_ptr<UdsServer> legacy_;
  std::unique_ptr<Server> server_;
  std::string spec_;
};

class IpcConformanceTest : public ::testing::TestWithParam<Flavor> {};

INSTANTIATE_TEST_SUITE_P(AllServers, IpcConformanceTest,
                         ::testing::Values(Flavor::kLegacy, Flavor::kEventUds,
                                           Flavor::kEventTcp,
                                           Flavor::kEventFanStore),
                         [](const auto& info) {
                           return flavor_name(info.param);
                         });

TEST_P(IpcConformanceTest, ServesGetStatListAndNotFound) {
  Harness h(GetParam());
  UdsClientVfs client(h.spec());
  EXPECT_EQ(*posixfs::read_file(client, "ds/small"), h.small());
  EXPECT_EQ(*posixfs::read_file(client, "ds/big"), h.big());

  format::FileStat st;
  ASSERT_EQ(client.stat("ds/big", &st), 0);
  EXPECT_EQ(st.size, h.big().size());
  EXPECT_EQ(client.stat("ds/absent", &st), -ENOENT);
  EXPECT_EQ(client.open("ds/absent", posixfs::OpenMode::kRead), -ENOENT);

  const int dh = client.opendir("ds");
  ASSERT_GE(dh, 0);
  int entries = 0;
  while (client.readdir(dh).has_value()) ++entries;
  EXPECT_EQ(client.closedir(dh), 0);
  EXPECT_EQ(entries, 2);
  h.stop();
}

TEST_P(IpcConformanceTest, TruncatedFrameThenCloseIsHarmless) {
  Harness h(GetParam());
  const int fd = raw_connect(h.spec());
  ASSERT_GE(fd, 0);
  // Declare 100 bytes, deliver 10, vanish.
  Bytes partial;
  append_le<std::uint32_t>(partial, 100);
  for (int i = 0; i < 10; ++i) partial.push_back(0x41);
  ASSERT_TRUE(send_all(fd, as_view(partial)));
  ::close(fd);
  h.expect_still_serving();
  h.stop();
}

TEST_P(IpcConformanceTest, OversizedDeclaredLengthGetsErrorOrClose) {
  Harness h(GetParam());
  const int fd = raw_connect(h.spec());
  ASSERT_GE(fd, 0);
  // 300 MiB declared: over the event server's max_request_bytes and over
  // the legacy read_frame sanity bound. Neither may allocate it or wait
  // for it: the reply is a clean error frame or an immediate close.
  Bytes header;
  append_le<std::uint32_t>(header, 300u << 20);
  ASSERT_TRUE(send_all(fd, as_view(header)));
  const auto reply = read_frame(fd);  // SO_RCVTIMEO turns a hang into failure
  if (reply.has_value()) {
    const auto decoded = decode_get_reply(as_view(*reply));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->status, Status::kError);
  }
  ::close(fd);
  h.expect_still_serving();
  h.stop();
}

TEST_P(IpcConformanceTest, GarbageHeaderGetsErrorReplyAndConnSurvives) {
  Harness h(GetParam());
  const int fd = raw_connect(h.spec());
  ASSERT_GE(fd, 0);
  // Well-framed garbage: unknown opcode 0x99 plus noise. The server must
  // answer with a kError reply and keep the connection usable.
  Bytes garbage;
  append_le<std::uint32_t>(garbage, 5);
  garbage.push_back(0x99);
  for (int i = 0; i < 4; ++i) garbage.push_back(0xEE);
  ASSERT_TRUE(send_all(fd, as_view(garbage)));
  const auto err = read_frame(fd);
  ASSERT_TRUE(err.has_value());
  const auto decoded = decode_get_reply(as_view(*err));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, Status::kError);

  ASSERT_TRUE(write_frame(fd, as_view(encode_request(Op::kGet, "ds/small"))));
  const auto ok = read_frame(fd);
  ASSERT_TRUE(ok.has_value());
  const auto got = decode_get_reply(as_view(*ok));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, Status::kOk);
  EXPECT_EQ(Bytes(got->data.begin(), got->data.end()), h.small());
  ::close(fd);
  h.stop();
}

TEST_P(IpcConformanceTest, ByteAtATimeDribbleStillParses) {
  Harness h(GetParam());
  const int fd = raw_connect(h.spec());
  ASSERT_GE(fd, 0);
  const Bytes payload = encode_request(Op::kGet, "ds/small");
  Bytes wire;
  append_le<std::uint32_t>(wire, static_cast<std::uint32_t>(payload.size()));
  wire.insert(wire.end(), payload.begin(), payload.end());
  for (const std::uint8_t b : wire) {
    ASSERT_TRUE(send_all(fd, ByteView(&b, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto reply = read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  const auto got = decode_get_reply(as_view(*reply));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, Status::kOk);
  EXPECT_EQ(Bytes(got->data.begin(), got->data.end()), h.small());
  ::close(fd);
  h.stop();
}

TEST_P(IpcConformanceTest, SilentClientNeverBlocksStop) {
  Harness h(GetParam());
  const int fd = raw_connect(h.spec());
  ASSERT_GE(fd, 0);
  h.expect_still_serving();
  h.stop();  // must return despite the silent connection
  char c;
  EXPECT_LE(::recv(fd, &c, 1, 0), 0);  // EOF or reset, never data
  ::close(fd);
}

TEST_P(IpcConformanceTest, NoFdLeakAcrossHostileChurn) {
  Harness h(GetParam());
  {
    // Warm up lazily-created fds (epoll/eventfd already exist; this covers
    // any per-connection lazy state) before taking the baseline.
    const int fd = raw_connect(h.spec());
    ASSERT_GE(fd, 0);
    ::close(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(scale_ms(50)));
  const std::size_t before = open_fd_count();
  for (int i = 0; i < 25; ++i) {
    const int fd = raw_connect(h.spec());
    ASSERT_GE(fd, 0);
    switch (i % 3) {
      case 0: {  // abort mid-frame
        Bytes partial;
        append_le<std::uint32_t>(partial, 50);
        partial.push_back(0x01);
        send_all(fd, as_view(partial));
        break;
      }
      case 1:  // full round trip, then vanish
        write_frame(fd, as_view(encode_request(Op::kGet, "ds/small")));
        read_frame(fd);
        break;
      case 2:  // connect and say nothing
        break;
    }
    ::close(fd);
  }
  // Give the server time to reap every closed connection.
  for (int spin = 0; spin < 100 && open_fd_count() > before; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(scale_ms(10)));
  }
  EXPECT_LE(open_fd_count(), before);
  h.expect_still_serving();
  h.stop();
}

// --- Event-server-only behaviour -------------------------------------------

TEST(IpcEventServerTest, EphemeralTcpPortIsResolved) {
  posixfs::MemVfs fs;
  posixfs::write_file(fs, "x", as_view(Bytes{1, 2, 3}));
  ServerOptions opt;
  opt.shards = 1;
  opt.blocker_threads = 1;
  Server server({Endpoint::tcp("127.0.0.1", 0)}, fs, opt);
  server.start();
  ASSERT_EQ(server.endpoints().size(), 1u);
  EXPECT_NE(server.endpoints()[0].port, 0);
  UdsClientVfs client(server.endpoints()[0].to_string());
  EXPECT_EQ(*posixfs::read_file(client, "x"), (Bytes{1, 2, 3}));
  server.stop();
}

TEST(IpcEventServerTest, IdleTimeoutClosesSilentConnection) {
  posixfs::MemVfs fs;
  posixfs::write_file(fs, "x", as_view(Bytes{9}));
  ServerOptions opt;
  opt.shards = 1;
  opt.blocker_threads = 1;
  opt.idle_timeout_ms = scale_ms(60);
  Server server({Endpoint::uds(unique_socket_path("idle"))}, fs, opt);
  server.start();
  const int fd = raw_connect(server.endpoints()[0].to_string());
  ASSERT_GE(fd, 0);
  char c;
  // SO_RCVTIMEO is generous; the idle sweep closes us long before it.
  EXPECT_EQ(::recv(fd, &c, 1, 0), 0);  // clean EOF from the server
  ::close(fd);
  server.stop();
}

TEST(IpcEventServerTest, ServesOnUdsAndTcpSimultaneously) {
  posixfs::MemVfs fs;
  const Bytes data = testdata::random_bytes(4096, 3);
  posixfs::write_file(fs, "both", as_view(data));
  ServerOptions opt;
  opt.shards = 2;
  opt.blocker_threads = 2;
  Server server({Endpoint::uds(unique_socket_path("dual")),
                 Endpoint::tcp("127.0.0.1", 0)},
                fs, opt);
  server.start();
  ASSERT_EQ(server.endpoints().size(), 2u);
  for (const auto& ep : server.endpoints()) {
    UdsClientVfs client(ep.to_string());
    EXPECT_EQ(*posixfs::read_file(client, "both"), data) << ep.to_string();
  }
  server.stop();
}

TEST(IpcEventServerTest, StartStopIsIdempotentAndRestartable) {
  posixfs::MemVfs fs;
  posixfs::write_file(fs, "x", as_view(Bytes{4, 2}));
  ServerOptions opt;
  opt.shards = 1;
  opt.blocker_threads = 1;
  Server server({Endpoint::uds(unique_socket_path("restart"))}, fs, opt);
  server.start();
  server.start();  // no-op
  {
    UdsClientVfs client(server.endpoints()[0].to_string());
    EXPECT_TRUE(posixfs::read_file(client, "x").has_value());
  }
  server.stop();
  server.stop();  // no-op
  server.start();  // fresh lifecycle on the same endpoints
  {
    UdsClientVfs client(server.endpoints()[0].to_string());
    EXPECT_EQ(*posixfs::read_file(client, "x"), (Bytes{4, 2}));
  }
  server.stop();
}

TEST(IpcEndpointTest, ParseAndToStringRoundTrip) {
  const auto uds = Endpoint::parse("unix:/tmp/x.sock");
  ASSERT_TRUE(uds.has_value());
  EXPECT_EQ(uds->kind, Endpoint::Kind::kUds);
  EXPECT_EQ(uds->path, "/tmp/x.sock");
  EXPECT_EQ(uds->to_string(), "unix:/tmp/x.sock");

  const auto bare = Endpoint::parse("/tmp/y.sock");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->kind, Endpoint::Kind::kUds);

  const auto tcp = Endpoint::parse("tcp:127.0.0.1:7010");
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp->host, "127.0.0.1");
  EXPECT_EQ(tcp->port, 7010);
  EXPECT_EQ(tcp->to_string(), "tcp:127.0.0.1:7010");

  EXPECT_FALSE(Endpoint::parse("tcp:127.0.0.1").has_value());
  EXPECT_FALSE(Endpoint::parse("tcp:host:notaport").has_value());
  EXPECT_FALSE(Endpoint::parse("tcp:host:70000").has_value());
  EXPECT_FALSE(Endpoint::parse("").has_value());
}

}  // namespace
}  // namespace fanstore::ipc
