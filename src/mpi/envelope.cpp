#include "mpi/envelope.hpp"

#include "util/crc32.hpp"

namespace fanstore::mpi {

namespace {
constexpr std::size_t kTagBytes = 4;
constexpr std::size_t kCrcBytes = 4;
}  // namespace

Bytes envelope(std::uint32_t reply_tag) {
  Bytes msg(kTagBytes);
  store_le<std::uint32_t>(msg.data(), reply_tag);
  return msg;
}

Bytes seal(Bytes msg) {
  const std::uint32_t crc = crc32(as_view(msg));
  append_le<std::uint32_t>(msg, crc);
  return msg;
}

std::optional<Unsealed> unseal(ByteView msg) {
  if (msg.size() < kTagBytes + kCrcBytes) return std::nullopt;
  const std::size_t n = msg.size() - kCrcBytes;
  if (crc32(msg.first(n)) != load_le<std::uint32_t>(msg.data() + n)) {
    return std::nullopt;
  }
  return Unsealed{load_le<std::uint32_t>(msg.data()),
                  msg.subspan(kTagBytes, n - kTagBytes)};
}

std::uint32_t claimed_reply_tag(ByteView msg) {
  if (msg.size() < kTagBytes) return 0;
  const std::uint32_t tag = load_le<std::uint32_t>(msg.data());
  return tag >= static_cast<std::uint32_t>(kFetchReplyTagBase) ? tag : 0;
}

ByteView Reply::body() const {
  if (!ok()) return {};
  return ByteView(msg).subspan(kTagBytes, msg.size() - kTagBytes - kCrcBytes);
}

Reply Caller::call(int dest, int tag, ByteView body, const Wait& wait) {
  const auto reply_tag = static_cast<std::uint32_t>(base_) +
                         seq_.fetch_add(1, std::memory_order_relaxed) % kReplyTagSpan;
  Bytes msg = envelope(reply_tag);
  msg.insert(msg.end(), body.begin(), body.end());
  comm_.send(dest, tag, seal(std::move(msg)));

  const int rtag = static_cast<int>(reply_tag);
  std::optional<Message> got;
  if (wait.pump) {
    for (int i = 0; i < kPumpBudget && !got; ++i) {
      got = comm_.try_recv(dest, rtag);
      if (!got) wait.pump();
    }
    if (!got) got = comm_.try_recv(dest, rtag);
  } else if (wait.timeout_ms > 0) {
    got = comm_.recv_timeout(dest, rtag, wait.timeout_ms);
  } else {
    got = comm_.recv(dest, rtag);
  }
  Reply reply;
  if (!got) return reply;
  // A reply echoes the tag it answers; one that does not is as corrupt as
  // one whose crc fails.
  const auto sealed = unseal(as_view(got->payload));
  if (!sealed || sealed->reply_tag != reply_tag) {
    reply.status = CallStatus::kCorrupt;
    return reply;
  }
  reply.status = CallStatus::kOk;
  reply.msg = std::move(got->payload);
  return reply;
}

}  // namespace fanstore::mpi
