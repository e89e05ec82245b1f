// Client-side Vfs that forwards reads/metadata over the daemon's socket
// front door — what the LD_PRELOAD interceptor would use inside an
// unmodified training process. Read-only: the multi-read side of
// FanStore's model (writes stay in-process via FanStoreFs).
//
// Speaks any ipc::Endpoint ("unix:/path", "tcp:127.0.0.1:port", or a bare
// UDS path for back-compat) to the daemon's event-driven ipc::Server.
// Failed round trips reconnect and retry with the shared RetryPolicy
// backoff, counting "retry.*".
#pragma once

#include <map>
#include <memory>
#include <string>

#include "ipc/transport.hpp"
#include "obs/metrics.hpp"
#include "posixfs/vfs.hpp"
#include "util/retry.hpp"
#include "util/sync.hpp"

namespace fanstore::ipc {

struct ClientOptions {
  /// Round-trip attempts per call and the backoff between them. A failed
  /// attempt drops the connection and reconnects before the next one. The
  /// default, one attempt, disables retries. Validated at construction
  /// (std::invalid_argument).
  RetryPolicy retry{.max_attempts = 1};
  /// Receives "retry.attempts" / "retry.exhausted"; may be null.
  obs::MetricsRegistry* metrics = nullptr;
};

class UdsClientVfs final : public posixfs::Vfs {
 public:
  /// `endpoint_spec` is anything Endpoint::parse accepts.
  explicit UdsClientVfs(std::string endpoint_spec, ClientOptions options = {});
  ~UdsClientVfs() override;

  UdsClientVfs(const UdsClientVfs&) = delete;
  UdsClientVfs& operator=(const UdsClientVfs&) = delete;

  /// Connects (lazily re-connects after errors); false if the daemon is
  /// not reachable.
  bool connect();

  int open(std::string_view path, posixfs::OpenMode mode) override;
  int close(int fd) override;
  std::int64_t read(int fd, MutByteView buf) override;
  std::int64_t write(int fd, ByteView buf) override;
  std::int64_t lseek(int fd, std::int64_t offset, posixfs::Whence whence) override;
  int stat(std::string_view path, format::FileStat* out) override;
  int opendir(std::string_view path) override;
  std::optional<posixfs::Dirent> readdir(int dir_handle) override;
  int closedir(int dir_handle) override;

 private:
  struct OpenFile {
    std::shared_ptr<const Bytes> reply;  // the get reply, kept whole
    ByteView data;                       // the file: reply after its status byte
    std::int64_t offset = 0;
  };
  struct OpenDir {
    std::vector<posixfs::Dirent> entries;
    std::size_t next = 0;
  };

  /// One request/response round trip (serialized per connection), with
  /// reconnect-and-retry per the ClientOptions.
  std::optional<Bytes> call(ByteView request) EXCLUDES(io_mu_, mu_);
  bool connect_locked() REQUIRES(io_mu_);

  Endpoint endpoint_;
  bool endpoint_valid_ = false;
  ClientOptions options_;
  obs::Counter* retry_attempts_ = nullptr;  // null when metrics is null
  obs::Counter* retry_exhausted_ = nullptr;
  // io_mu_ and mu_ are never held together: every call() round trip
  // finishes before the fd tables are touched.
  sync::Mutex io_mu_{"uds_client.io_mu"};  // serializes socket round trips
  int sock_ GUARDED_BY(io_mu_) = -1;

  sync::Mutex mu_{"uds_client.mu"};  // fd tables
  std::map<int, OpenFile> open_files_ GUARDED_BY(mu_);
  std::map<int, OpenDir> open_dirs_ GUARDED_BY(mu_);
  int next_fd_ GUARDED_BY(mu_) = 3;
  int next_dir_ GUARDED_BY(mu_) = 1;
};

}  // namespace fanstore::ipc
