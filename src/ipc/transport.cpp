#include "ipc/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace fanstore::ipc {

Endpoint Endpoint::uds(std::string socket_path) {
  Endpoint ep;
  ep.kind = Kind::kUds;
  ep.path = std::move(socket_path);
  return ep;
}

Endpoint Endpoint::tcp(std::string host, std::uint16_t port) {
  Endpoint ep;
  ep.kind = Kind::kTcp;
  ep.host = std::move(host);
  ep.port = port;
  return ep;
}

std::optional<Endpoint> Endpoint::parse(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    const std::string path = spec.substr(5);
    if (path.empty()) return std::nullopt;
    return uds(path);
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= rest.size()) {
      return std::nullopt;
    }
    const std::string host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    long port = 0;
    for (char c : port_str) {
      if (c < '0' || c > '9') return std::nullopt;
      port = port * 10 + (c - '0');
      if (port > 65535) return std::nullopt;
    }
    return tcp(host, static_cast<std::uint16_t>(port));
  }
  if (spec.empty()) return std::nullopt;
  return uds(spec);  // bare paths keep meaning UDS
}

std::string Endpoint::to_string() const {
  if (kind == Kind::kUds) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

bool set_nonblocking(int fd) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl < 0) return false;
  if (::fcntl(fd, F_SETFL, fl | O_NONBLOCK) != 0) return false;
  const int fdfl = ::fcntl(fd, F_GETFD, 0);
  return fdfl >= 0 && ::fcntl(fd, F_SETFD, fdfl | FD_CLOEXEC) == 0;
}

namespace {

class UdsTransport final : public Transport {
 public:
  int listen(const Endpoint& ep, Endpoint* bound) override {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (ep.path.size() >= sizeof(addr.sun_path)) {
      throw std::invalid_argument("ipc: socket path too long: " + ep.path);
    }
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("ipc: socket() failed");
    ::unlink(ep.path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      throw std::runtime_error("ipc: bind() failed for " + ep.path);
    }
    if (::listen(fd, SOMAXCONN) != 0) {
      ::close(fd);
      throw std::runtime_error("ipc: listen() failed for " + ep.path);
    }
    if (!set_nonblocking(fd)) {
      ::close(fd);
      throw std::runtime_error("ipc: fcntl() failed for " + ep.path);
    }
    if (bound != nullptr) *bound = ep;
    return fd;
  }

  int connect(const Endpoint& ep) override {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (ep.path.size() >= sizeof(addr.sun_path)) return -1;
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    for (;;) {
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        return fd;
      }
      if (errno == EINTR) continue;
      ::close(fd);
      return -1;
    }
  }

  void cleanup(const Endpoint& ep) override { ::unlink(ep.path.c_str()); }
};

class TcpTransport final : public Transport {
 public:
  int listen(const Endpoint& ep, Endpoint* bound) override {
    sockaddr_in addr{};
    if (!to_addr(ep, &addr)) {
      throw std::invalid_argument("ipc: bad tcp address: " + ep.to_string());
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("ipc: socket() failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      throw std::runtime_error("ipc: bind() failed for " + ep.to_string());
    }
    if (::listen(fd, SOMAXCONN) != 0) {
      ::close(fd);
      throw std::runtime_error("ipc: listen() failed for " + ep.to_string());
    }
    if (!set_nonblocking(fd)) {
      ::close(fd);
      throw std::runtime_error("ipc: fcntl() failed for " + ep.to_string());
    }
    if (bound != nullptr) {
      *bound = ep;
      sockaddr_in actual{};
      socklen_t len = sizeof(actual);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0) {
        bound->port = ntohs(actual.sin_port);
      }
    }
    return fd;
  }

  int connect(const Endpoint& ep) override {
    sockaddr_in addr{};
    if (!to_addr(ep, &addr)) return -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    for (;;) {
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        return fd;
      }
      if (errno == EINTR) continue;
      ::close(fd);
      return -1;
    }
  }

  void cleanup(const Endpoint&) override {}

 private:
  static bool to_addr(const Endpoint& ep, sockaddr_in* addr) {
    addr->sin_family = AF_INET;
    addr->sin_port = htons(ep.port);
    return ::inet_pton(AF_INET, ep.host.c_str(), &addr->sin_addr) == 1;
  }
};

}  // namespace

Transport& Transport::for_kind(Endpoint::Kind kind) {
  static UdsTransport uds;
  static TcpTransport tcp;
  return kind == Endpoint::Kind::kUds ? static_cast<Transport&>(uds)
                                      : static_cast<Transport&>(tcp);
}

int transport_connect(const Endpoint& ep) {
  return Transport::for_kind(ep.kind).connect(ep);
}

}  // namespace fanstore::ipc
