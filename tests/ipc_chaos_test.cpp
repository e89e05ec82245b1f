// Chaos integration for the socket front door (DESIGN.md §8 + §11): a
// trainer epoch runs against a real FanStore instance over real TCP
// loopback, but every byte flows through a seeded chaos proxy that keeps
// killing connections mid-reply. The client's reconnect-and-retry envelope
// must absorb every kill: training completes, every file read is
// byte-identical to a direct in-process read, and the retry.* counters
// prove the faults actually fired.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "compress/registry.hpp"
#include "core/instance.hpp"
#include "dlsim/trainer.hpp"
#include "ipc/server.hpp"
#include "ipc/uds_client.hpp"
#include "mpi/comm.hpp"
#include "simnet/virtual_clock.hpp"
#include "tests/test_data.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace fanstore {
namespace {

// TCP forwarder that cuts each connection after a seeded byte budget of
// server->client traffic — a deterministic-policy stand-in for a flaky
// network path. Budgets always exceed one full reply, so a retried call
// makes progress and the client can never livelock.
class ChaosProxy {
 public:
  ChaosProxy(const std::string& upstream_host, std::uint16_t upstream_port,
             std::uint64_t seed)
      : upstream_host_(upstream_host), upstream_port_(upstream_port),
        rng_(seed) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("proxy: socket failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      ::close(listen_fd_);
      throw std::runtime_error("proxy: bind/listen failed");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  ~ChaosProxy() { stop(); }

  std::uint16_t port() const { return port_; }
  int kills() const { return kills_.load(); }

  void stop() {
    if (stopping_.exchange(true)) return;
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    ::close(listen_fd_);
    std::vector<std::thread> pumps;
    {
      sync::MutexLock lk(mu_);
      for (const int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
      pumps.swap(pumps_);
    }
    for (auto& t : pumps) t.join();
    sync::MutexLock lk(mu_);
    for (const int fd : live_fds_) ::close(fd);
    live_fds_.clear();
  }

 private:
  void accept_loop() {
    for (;;) {
      const int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client < 0) {
        if (errno == EINTR && !stopping_.load()) continue;
        return;
      }
      const int upstream = connect_upstream();
      if (upstream < 0) {
        ::close(client);
        continue;
      }
      std::uint64_t budget;
      {
        sync::MutexLock lk(mu_);
        // First connection dies fast so at least one mid-reply kill is
        // guaranteed; later budgets still force kills every few replies.
        budget = first_ ? 6 << 10 : (6 << 10) + rng_.next_below(48 << 10);
        first_ = false;
        live_fds_.push_back(client);
        live_fds_.push_back(upstream);
        pumps_.emplace_back([this, client, upstream] {
          pump(client, upstream, 0);  // client->server: unlimited
        });
        pumps_.emplace_back([this, client, upstream, budget] {
          pump(upstream, client, budget);  // server->client: budgeted
        });
      }
    }
  }

  int connect_upstream() const {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(upstream_port_);
    ::inet_pton(AF_INET, upstream_host_.c_str(), &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }

  // Copies src->dst until EOF/error or (budget > 0) the budget runs out,
  // then severs both directions so the paired pump exits too.
  void pump(int src, int dst, std::uint64_t budget) {
    std::uint8_t buf[16 << 10];
    std::uint64_t moved = 0;
    for (;;) {
      const ssize_t r = ::recv(src, buf, sizeof(buf), 0);
      if (r <= 0) {
        if (r < 0 && errno == EINTR) continue;
        break;
      }
      std::size_t off = 0;
      bool write_failed = false;
      while (off < static_cast<std::size_t>(r)) {
        const ssize_t w = ::send(dst, buf + off,
                                 static_cast<std::size_t>(r) - off,
                                 MSG_NOSIGNAL);
        if (w <= 0) {
          if (w < 0 && errno == EINTR) continue;
          write_failed = true;
          break;
        }
        off += static_cast<std::size_t>(w);
      }
      if (write_failed) break;
      moved += static_cast<std::uint64_t>(r);
      if (budget > 0 && moved >= budget) {
        kills_.fetch_add(1);
        break;
      }
    }
    ::shutdown(src, SHUT_RDWR);
    ::shutdown(dst, SHUT_RDWR);
  }

  std::string upstream_host_;
  std::uint16_t upstream_port_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> kills_{0};
  sync::Mutex mu_{"test.chaos_proxy.mu"};
  Rng rng_ GUARDED_BY(mu_);
  bool first_ GUARDED_BY(mu_) = true;
  std::vector<std::thread> pumps_ GUARDED_BY(mu_);
  std::vector<int> live_fds_ GUARDED_BY(mu_);
};

// One-partition blob holding `paths` with deterministic contents.
Bytes partition_with(const std::vector<std::string>& paths) {
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name("lz4");
  format::PartitionWriter w;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    w.add(format::make_record(paths[i], *codec, reg.id_of(*codec),
                              as_view(testdata::random_bytes(4000, i + 1))));
  }
  return w.serialize();
}

TEST(IpcChaosTest, FaultedTrainerEpochOverTcpIsByteIdentical) {
  std::vector<std::string> files;
  for (int i = 0; i < 24; ++i) files.push_back("ds/f" + std::to_string(i));

  mpi::run_world(1, [&](mpi::Comm& comm) {
    core::Instance::Options opt;
    opt.serve_endpoints = {"tcp:127.0.0.1:0"};
    core::Instance inst(comm, opt);
    inst.load_partition_blob(as_view(partition_with(files)), 0);
    inst.exchange_metadata();
    inst.start_daemon();
    ASSERT_NE(inst.ipc_server(), nullptr);
    ASSERT_EQ(inst.ipc_server()->endpoints().size(), 1u);
    const ipc::Endpoint served = inst.ipc_server()->endpoints()[0];
    ASSERT_NE(served.port, 0);

    ChaosProxy proxy(served.host, served.port, /*seed=*/42);
    obs::MetricsRegistry client_metrics;
    ipc::ClientOptions copt;
    copt.retry.max_attempts = 16;
    copt.retry.base_delay_ms = 1;
    copt.retry.max_delay_ms = 16;
    copt.metrics = &client_metrics;
    ipc::UdsClientVfs client(
        "tcp:127.0.0.1:" + std::to_string(proxy.port()), copt);

    // Trainer <-> daemon traffic across the chaotic wire: a full epoch of
    // reads must complete despite the proxy's kills.
    simnet::VirtualClock clock;
    dlsim::TrainerOptions topt;
    topt.io_clock = &clock;
    topt.epochs = 2;
    topt.batch_per_rank = 4;
    topt.t_iter_s = 0.001;
    topt.async_io = false;
    const auto result = dlsim::run_training(client, files, topt);
    EXPECT_EQ(result.files_read, files.size() * 2);
    EXPECT_GT(result.bytes_read, 0u);

    // Byte-identical: every proxied read matches the in-process truth.
    for (const auto& path : files) {
      const auto via_proxy = posixfs::read_file(client, path);
      const auto direct = posixfs::read_file(inst.fs(), path);
      ASSERT_TRUE(via_proxy.has_value()) << path;
      ASSERT_TRUE(direct.has_value()) << path;
      EXPECT_EQ(*via_proxy, *direct) << path;
    }

    // The chaos actually happened, and the retry envelope absorbed it.
    EXPECT_GT(proxy.kills(), 0);
    EXPECT_GT(client_metrics.counter("retry.attempts").value(), 0u);
    EXPECT_EQ(client_metrics.counter("retry.exhausted").value(), 0u);

    proxy.stop();
    inst.stop();
  });
}

}  // namespace
}  // namespace fanstore
