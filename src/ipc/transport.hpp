// Transport abstraction for the daemon's socket front door: one Endpoint
// type naming either a Unix-domain socket or a loopback TCP address, and a
// Transport that knows how to listen on / connect to / clean up after one
// endpoint kind. The event-driven server (server.hpp) and the client Vfs
// (uds_client.hpp) both speak Endpoints, so a daemon can serve trainer
// processes on the same node over UDS and "remote" hosts over TCP with the
// exact same framed protocol.
//
// Endpoint spec strings (accepted by Endpoint::parse and the client):
//   unix:/path/to.sock    Unix-domain stream socket
//   tcp:127.0.0.1:7010    TCP (port 0 = kernel-assigned, reported back)
//   /path/to.sock         bare paths keep meaning UDS (back-compat)
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace fanstore::ipc {

struct Endpoint {
  enum class Kind : std::uint8_t { kUds, kTcp };

  Kind kind = Kind::kUds;
  std::string path;              // kUds: socket path
  std::string host = "127.0.0.1";  // kTcp
  std::uint16_t port = 0;          // kTcp; 0 = ephemeral (resolved on bind)

  static Endpoint uds(std::string socket_path);
  static Endpoint tcp(std::string host, std::uint16_t port);

  /// Parses a spec string (see file comment); nullopt on malformed specs.
  static std::optional<Endpoint> parse(const std::string& spec);

  /// Canonical spec string ("unix:/p", "tcp:host:port").
  std::string to_string() const;
};

/// Listen/connect for one endpoint kind. Stateless singletons — all
/// connection state lives with the fd the calls return.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Binds + listens with a SOMAXCONN backlog (the kernel caps it at
  /// net.core.somaxconn), so a herd of clients connecting at once queues
  /// instead of being refused. Returns the listening fd (non-blocking,
  /// CLOEXEC) or throws std::runtime_error. `*bound` (may be null)
  /// receives the actual endpoint — for TCP with port 0 this carries the
  /// kernel-assigned port.
  virtual int listen(const Endpoint& ep, Endpoint* bound) = 0;

  /// Blocking connect; returns the connected fd or -1. Retries EINTR.
  virtual int connect(const Endpoint& ep) = 0;

  /// Post-close cleanup (unlink the UDS path; no-op for TCP).
  virtual void cleanup(const Endpoint& ep) = 0;

  static Transport& for_kind(Endpoint::Kind kind);
};

/// Convenience: connect to an endpoint via its kind's transport.
int transport_connect(const Endpoint& ep);

/// Sets O_NONBLOCK (+ CLOEXEC) on `fd`; false on fcntl failure.
bool set_nonblocking(int fd);

}  // namespace fanstore::ipc
