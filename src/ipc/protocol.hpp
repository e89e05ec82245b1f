// Wire protocol between the function interceptor and the FanStore daemon
// across a process boundary (the paper's §V-A split: intercepted training
// processes talk to one FanStore daemon per node).
//
// Framing: every message is [u32 payload_len][payload]. Requests carry an
// opcode byte; replies a status byte.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "format/file_stat.hpp"
#include "posixfs/vfs.hpp"
#include "util/bytes.hpp"

namespace fanstore::ipc {

enum class Op : std::uint8_t {
  kGet = 1,   // fetch a whole (decompressed) file
  kStat = 2,  // file/directory metadata
  kList = 3,  // directory listing
};

enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
  kError = 2,
};

// --- Request encoding: [op][path bytes] ---

Bytes encode_request(Op op, std::string_view path);

struct Request {
  Op op;
  std::string path;
};
std::optional<Request> decode_request(ByteView payload);

// --- Reply encoding ---

Bytes encode_get_reply(Status status, ByteView data);
/// The framed head of a get reply carrying `data_size` file bytes:
/// [u32 len][status], the file's bytes following it on the wire. A server
/// sends the file from where it lies after this head (one gather write)
/// instead of copying it into an encode_get_reply payload.
Bytes encode_get_reply_head(Status status, std::size_t data_size);
Bytes encode_stat_reply(Status status, const format::FileStat& stat);
Bytes encode_list_reply(Status status, const std::vector<posixfs::Dirent>& entries);

/// `data` views the payload the reply was decoded from.
struct GetReply {
  Status status = Status::kError;
  ByteView data;
};
std::optional<GetReply> decode_get_reply(ByteView payload);

struct StatReply {
  Status status = Status::kError;
  format::FileStat stat;
};
std::optional<StatReply> decode_stat_reply(ByteView payload);

struct ListReply {
  Status status = Status::kError;
  std::vector<posixfs::Dirent> entries;
};
std::optional<ListReply> decode_list_reply(ByteView payload);

// --- Framed socket I/O (blocking) ---

/// Writes [u32 len][payload]; returns false on socket error.
bool write_frame(int fd, ByteView payload);

/// Reads one frame; nullopt on EOF/error/oversized (> 256 MiB) frames.
std::optional<Bytes> read_frame(int fd);

}  // namespace fanstore::ipc
