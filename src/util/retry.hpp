// Retry policy: exponential backoff with deterministic jitter (DESIGN.md
// §8 "Fault model"). The one backoff implementation, shared by the remote
// fetch path (core::FanStoreFs) and the socket client (ipc::UdsClientVfs).
//
// A fetch attempt that fails *retryably* — the daemon did not answer inside
// the timeout window, or the reply failed its wire CRC — is retried against
// the same candidate rank up to `max_attempts` times, sleeping an
// exponentially growing, jittered delay between attempts. Definitive
// outcomes (the rank answered "not found") skip retries and move failover
// to the next ring candidate immediately. The socket client retries a
// failed round trip the same way, reconnecting before each attempt.
//
// Jitter is derived from (seed, salt, attempt) with the same splitmix
// mixing the fault layer uses, never from wall-clock or a shared RNG: the
// exact backoff schedule of any run replays from its seed.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace fanstore {

struct RetryPolicy {
  /// Attempts per candidate rank or round trip (>= 1); 1 disables
  /// retries.
  int max_attempts = 3;
  /// Backoff before attempt k (k >= 1) is min(base << (k-1), max) ms,
  /// then jittered.
  int base_delay_ms = 2;
  int max_delay_ms = 200;
  /// Fraction of the delay that is randomized: the slept delay is uniform
  /// in [delay * (1 - jitter), delay]. 0 = fixed backoff, 1 = full jitter.
  double jitter = 0.5;
  /// Seed for the jitter stream (combined with a per-call salt).
  std::uint64_t seed = 0x7E7294EEull;

  /// Throws std::invalid_argument when any field is out of range.
  void validate() const;

  /// Jittered backoff in ms before retry `attempt` (1-based: the delay
  /// between attempt `attempt` and `attempt + 1`). Deterministic in
  /// (seed, salt, attempt). Returns 0 when base_delay_ms == 0.
  int delay_ms(int attempt, std::uint64_t salt) const;
};

}  // namespace fanstore
