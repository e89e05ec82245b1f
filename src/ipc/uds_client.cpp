#include "ipc/uds_client.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "ipc/protocol.hpp"
#include "util/hash.hpp"

namespace fanstore::ipc {

UdsClientVfs::UdsClientVfs(std::string endpoint_spec, ClientOptions options)
    : options_(options) {
  const auto ep = Endpoint::parse(endpoint_spec);
  if (ep.has_value()) {
    endpoint_ = *ep;
    endpoint_valid_ = true;
  }
  options_.retry.validate();
  if (options_.metrics != nullptr) {
    retry_attempts_ = &options_.metrics->counter("retry.attempts");
    retry_exhausted_ = &options_.metrics->counter("retry.exhausted");
  }
}

UdsClientVfs::~UdsClientVfs() {
  sync::MutexLock lk(io_mu_);
  if (sock_ >= 0) ::close(sock_);
}

bool UdsClientVfs::connect_locked() {
  if (sock_ >= 0) return true;
  if (!endpoint_valid_) return false;
  sock_ = transport_connect(endpoint_);
  return sock_ >= 0;
}

bool UdsClientVfs::connect() {
  sync::MutexLock lk(io_mu_);
  return connect_locked();
}

std::optional<Bytes> UdsClientVfs::call(ByteView request) {
  sync::MutexLock lk(io_mu_);
  for (int attempt = 1;; ++attempt) {
    if (connect_locked()) {
      if (write_frame(sock_, request)) {
        auto reply = read_frame(sock_);
        if (reply) return reply;
      }
      // Failed mid-round-trip: the stream position is unknown, so the
      // connection is useless — drop it and reconnect on the next attempt.
      ::close(sock_);
      sock_ = -1;
    }
    const RetryPolicy& retry = options_.retry;
    if (attempt >= retry.max_attempts) {
      if (retry_exhausted_ != nullptr && retry.max_attempts > 1) {
        retry_exhausted_->inc();
      }
      return std::nullopt;
    }
    if (retry_attempts_ != nullptr) retry_attempts_->inc();
    // Jitter salted by the request, so clients retrying different requests
    // after one server hiccup do not wake in lockstep.
    const int delay = retry.delay_ms(
        attempt, util::stable_hash64(std::string_view(
                     reinterpret_cast<const char*>(request.data()),
                     request.size())));
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
  }
}

int UdsClientVfs::open(std::string_view path_in, posixfs::OpenMode mode) {
  if (mode != posixfs::OpenMode::kRead) return -EROFS;  // read-only transport
  const std::string path = posixfs::normalize_path(path_in);
  const auto reply = call(as_view(encode_request(Op::kGet, path)));
  if (!reply) return -EIO;
  auto get = decode_get_reply(as_view(*reply));
  if (!get) return -EIO;
  if (get->status != Status::kOk) return -ENOENT;
  sync::MutexLock lk(mu_);
  const int fd = next_fd_++;
  open_files_[fd] =
      OpenFile{std::make_shared<const Bytes>(std::move(get->data)), 0};
  return fd;
}

int UdsClientVfs::close(int fd) {
  sync::MutexLock lk(mu_);
  return open_files_.erase(fd) > 0 ? 0 : -EBADF;
}

std::int64_t UdsClientVfs::read(int fd, MutByteView buf) {
  sync::MutexLock lk(mu_);
  const auto it = open_files_.find(fd);
  if (it == open_files_.end()) return -EBADF;
  OpenFile& of = it->second;
  const Bytes& data = *of.data;
  if (of.offset >= static_cast<std::int64_t>(data.size())) return 0;
  const std::size_t n =
      std::min(buf.size(), data.size() - static_cast<std::size_t>(of.offset));
  std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(of.offset), n, buf.begin());
  of.offset += static_cast<std::int64_t>(n);
  return static_cast<std::int64_t>(n);
}

std::int64_t UdsClientVfs::write(int, ByteView) { return -EROFS; }

std::int64_t UdsClientVfs::lseek(int fd, std::int64_t offset, posixfs::Whence whence) {
  sync::MutexLock lk(mu_);
  const auto it = open_files_.find(fd);
  if (it == open_files_.end()) return -EBADF;
  OpenFile& of = it->second;
  return posixfs::seek_cursor(&of.offset, offset, whence, of.data->size());
}

int UdsClientVfs::stat(std::string_view path_in, format::FileStat* out) {
  const std::string path = posixfs::normalize_path(path_in);
  const auto reply = call(as_view(encode_request(Op::kStat, path)));
  if (!reply) return -EIO;
  const auto st = decode_stat_reply(as_view(*reply));
  if (!st) return -EIO;
  if (st->status != Status::kOk) return -ENOENT;
  *out = st->stat;
  return 0;
}

int UdsClientVfs::opendir(std::string_view path_in) {
  const std::string path = posixfs::normalize_path(path_in);
  const auto reply = call(as_view(encode_request(Op::kList, path)));
  if (!reply) return -EIO;
  auto list = decode_list_reply(as_view(*reply));
  if (!list) return -EIO;
  if (list->status != Status::kOk) return -ENOENT;
  sync::MutexLock lk(mu_);
  const int h = next_dir_++;
  open_dirs_[h] = OpenDir{std::move(list->entries), 0};
  return h;
}

std::optional<posixfs::Dirent> UdsClientVfs::readdir(int dir_handle) {
  sync::MutexLock lk(mu_);
  const auto it = open_dirs_.find(dir_handle);
  if (it == open_dirs_.end()) return std::nullopt;
  if (it->second.next >= it->second.entries.size()) return std::nullopt;
  return it->second.entries[it->second.next++];
}

int UdsClientVfs::closedir(int dir_handle) {
  sync::MutexLock lk(mu_);
  return open_dirs_.erase(dir_handle) > 0 ? 0 : -EBADF;
}

}  // namespace fanstore::ipc
