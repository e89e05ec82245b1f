#include "ipc/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace fanstore::ipc {

Bytes encode_request(Op op, std::string_view path) {
  Bytes out;
  out.reserve(1 + path.size());
  out.push_back(static_cast<std::uint8_t>(op));
  out.insert(out.end(), path.begin(), path.end());
  return out;
}

std::optional<Request> decode_request(ByteView payload) {
  if (payload.empty()) return std::nullopt;
  const auto op = static_cast<Op>(payload[0]);
  if (op != Op::kGet && op != Op::kStat && op != Op::kList) return std::nullopt;
  return Request{op, std::string(reinterpret_cast<const char*>(payload.data()) + 1,
                                 payload.size() - 1)};
}

Bytes encode_get_reply_head(Status status, std::size_t data_size) {
  Bytes out;
  out.reserve(5);
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(1 + data_size));
  out.push_back(static_cast<std::uint8_t>(status));
  return out;
}

std::optional<GetReply> decode_get_reply(ByteView payload) {
  if (payload.empty()) return std::nullopt;
  return GetReply{static_cast<Status>(payload[0]), payload.subspan(1)};
}

Bytes encode_stat_reply(Status status, const format::FileStat& stat) {
  Bytes out(1 + format::kStatBytes);
  out[0] = static_cast<std::uint8_t>(status);
  stat.serialize(out.data() + 1);
  return out;
}

std::optional<StatReply> decode_stat_reply(ByteView payload) {
  if (payload.size() != 1 + format::kStatBytes) return std::nullopt;
  StatReply r;
  r.status = static_cast<Status>(payload[0]);
  r.stat = format::FileStat::deserialize(payload.data() + 1);
  return r;
}

Bytes encode_list_reply(Status status, const std::vector<posixfs::Dirent>& entries) {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(status));
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    append_le<std::uint16_t>(out, static_cast<std::uint16_t>(e.name.size()));
    out.insert(out.end(), e.name.begin(), e.name.end());
    out.push_back(static_cast<std::uint8_t>(e.type));
  }
  return out;
}

std::optional<ListReply> decode_list_reply(ByteView payload) {
  if (payload.size() < 5) return std::nullopt;
  ListReply r;
  r.status = static_cast<Status>(payload[0]);
  const std::uint32_t n = load_le<std::uint32_t>(payload.data() + 1);
  std::size_t pos = 5;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (pos + 2 > payload.size()) return std::nullopt;
    const std::uint16_t len = load_le<std::uint16_t>(payload.data() + pos);
    pos += 2;
    if (pos + len + 1 > payload.size()) return std::nullopt;
    posixfs::Dirent e;
    e.name.assign(reinterpret_cast<const char*>(payload.data()) + pos, len);
    pos += len;
    e.type = static_cast<format::FileType>(payload[pos++]);
    r.entries.push_back(std::move(e));
  }
  if (pos != payload.size()) return std::nullopt;
  return r;
}

namespace {
bool write_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    // MSG_NOSIGNAL: writing to a peer that hung up must fail with EPIPE,
    // not kill the process with SIGPIPE — a daemon survives its clients
    // and a client survives a daemon restart.
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}
}  // namespace

bool write_frame(int fd, ByteView payload) {
  std::uint8_t header[4];
  store_le<std::uint32_t>(header, static_cast<std::uint32_t>(payload.size()));
  return write_all(fd, header, 4) && write_all(fd, payload.data(), payload.size());
}

std::optional<Bytes> read_frame(int fd) {
  std::uint8_t header[4];
  if (!read_all(fd, header, 4)) return std::nullopt;
  const std::uint32_t len = load_le<std::uint32_t>(header);
  if (len > (256u << 20)) return std::nullopt;  // sanity bound
  Bytes payload(len);
  if (len > 0 && !read_all(fd, payload.data(), len)) return std::nullopt;
  return payload;
}

}  // namespace fanstore::ipc
