// The one wire format of every rank-to-rank message (DESIGN.md §8 "Wire
// integrity"): fetch requests and replies, write-meta forwards, the ring
// copy, the metadata cluster's requests, replies and shard pushes all
// travel as
//
//     [u32 reply_tag][body][u32 crc32 over everything before it]
//
// reply_tag names the tag the receiver answers on; 0 marks a one-way
// message. A receiver unseal()s before it reads a byte, so a message
// whose crc fails is never interpreted: a fetch request is answered
// kFetchMalformed (retryable), a cluster request or a one-way message is
// dropped and counted, and a corrupted reply is reported to the caller
// as CallStatus::kCorrupt.
//
// This header also holds the tag table, the one definition of every tag
// FanStore sends between ranks (the fault layer scopes its plans with the
// same constants).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>

#include "mpi/comm.hpp"
#include "util/bytes.hpp"

namespace fanstore::mpi {

// --- the tag table ----------------------------------------------------------
// Data daemon (core/daemon.hpp) and setup traffic (core/instance.hpp).
constexpr int kTagFetch = 100;
constexpr int kTagWriteMeta = 101;     // one-way
constexpr int kTagShutdown = 102;      // self-addressed by Daemon::stop()
constexpr int kTagRingCopy = 103;      // one-way, Instance::replicate_ring
// Metadata cluster (cluster/node.hpp), served by the daemon's loop.
// 110..115 are requests; 116 is unused.
constexpr int kTagGossip = 110;        // one-way push, or push-pull from join()
constexpr int kTagMetaLookup = 111;
constexpr int kTagShardDigest = 112;
constexpr int kTagShardPull = 113;
constexpr int kTagListPaths = 114;
constexpr int kTagListDir = 115;
constexpr int kTagMetaPush = 117;      // one-way shard merge
constexpr bool is_cluster_tag(int tag) {
  return tag >= kTagGossip && tag <= kTagMetaPush;
}
// Reply tags: each caller draws from its own kReplyTagSpan tags.
constexpr int kFetchReplyTagBase = 1000;
constexpr int kClusterReplyTagBase = 2000000;
constexpr std::uint32_t kReplyTagSpan = 1000000;

/// Manual mode: how many pump() rounds a call() waits for its reply before
/// giving up — the deterministic stand-in for a timeout.
constexpr int kPumpBudget = 4096;

// --- seal / unseal ------------------------------------------------------------

/// A message under construction: its reply tag. Append the body, then
/// seal() it.
Bytes envelope(std::uint32_t reply_tag);

/// Appends the crc32 of every byte of `msg` (which envelope() started).
Bytes seal(Bytes msg);

struct Unsealed {
  std::uint32_t reply_tag = 0;
  ByteView body;  // points into the message unseal() was given
};

/// The verified reply tag and body; nullopt when the message is shorter
/// than an envelope or its crc does not match.
std::optional<Unsealed> unseal(ByteView msg);

/// The reply tag a message claims, unverified; 0 when it is too short or
/// the claim is not a reply tag (a flipped bit must not address a request
/// tag). Only for answering a request that failed unseal() "malformed".
std::uint32_t claimed_reply_tag(ByteView msg);

// --- call -------------------------------------------------------------------

/// How call() waits for its reply. With `pump` set (manual mode) it polls
/// and runs pump() up to kPumpBudget times; otherwise it blocks for at
/// most `timeout_ms` (0 = no timeout).
struct Wait {
  int timeout_ms = 0;
  std::function<void()> pump;
};

enum class CallStatus { kOk, kTimeout, kCorrupt };

struct Reply {
  CallStatus status = CallStatus::kTimeout;
  Bytes msg;  // the sealed reply as received (kOk only)

  bool ok() const { return status == CallStatus::kOk; }
  /// The verified body; empty unless ok().
  ByteView body() const;
};

/// The client side of one rank object (the fs, the cluster node): it owns
/// that object's reply tags, so a seeded fault schedule never depends on
/// how other objects' threads interleave.
class Caller {
 public:
  Caller(Comm comm, int reply_tag_base) : comm_(comm), base_(reply_tag_base) {}

  /// Sends `body` sealed under a fresh reply tag to `dest` at `tag` and
  /// waits for the sealed answer on that reply tag.
  Reply call(int dest, int tag, ByteView body, const Wait& wait);

 private:
  Comm comm_;
  int base_;
  std::atomic<std::uint32_t> seq_{0};
};

}  // namespace fanstore::mpi
