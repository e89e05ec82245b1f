// FaultInjector: executes a FaultPlan deterministically.
//
// One injector is shared by a whole simulated job (all ranks of an
// mpi::World). Consumers ask it for verdicts at well-defined injection
// points:
//
//   mpi::World::deliver        -> on_message()       drop/delay/dup/corrupt
//   core::Daemon::serve        -> note_fetch_request(), daemon_alive()
//                                                     crash / restart
//   core::FaultInjectedBackend -> backend_get_action(), flip_bytes()
//   core::Instance (setup)     -> network_multiplier(), storage_multiplier()
//
// Every probabilistic decision hashes (plan seed, rule index, channel,
// per-channel sequence number); as long as each directed channel's message
// order is deterministic (one logical sender per channel — true for the
// fetch protocol), the whole fault schedule replays bit-identically from
// the seed. That includes the bytes a corrupt verdict flips: their offsets
// come from the same per-channel draw (backend reads: per rank and path).
// Injected faults are counted in "fault.*" metrics and recorded in a
// canonical schedule log (schedule_dump()) that determinism tests compare
// across runs.
//
// Thread-safety: fully internally synchronized; the injector mutex is a
// leaf (never held while calling out).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/sync.hpp"

namespace fanstore::fault {

/// What to do with one message; payload corruption already happened in
/// place when `corrupted` is set.
struct MessageVerdict {
  bool drop = false;
  bool duplicate = false;
  bool corrupted = false;
  int delay_ms = 0;
};

/// Outcome of a backend read consult.
enum class BackendAction { kNone, kFail, kCorrupt };

/// A backend read's verdict; for kCorrupt, `draw` is the rule's draw that
/// flip_bytes() takes the offsets from.
struct BackendVerdict {
  BackendAction action = BackendAction::kNone;
  std::uint64_t draw = 0;
};

/// Flips two bytes of `payload` at offsets taken from `draw`, the ones
/// schedule_dump() lists; never a no-op for a non-empty payload.
void flip_bytes(Bytes& payload, std::uint64_t draw);

class FaultInjector {
 public:
  /// `metrics` receives the "fault.*" counters; nullptr gives the injector
  /// a private registry (tests snapshot via metrics()).
  explicit FaultInjector(FaultPlan plan, obs::MetricsRegistry* metrics = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- mpi mailbox boundary -------------------------------------------
  /// Verdict for one point-to-point message; may corrupt `payload` in
  /// place. Self-sends (src == dest) are exempt by the caller's contract.
  MessageVerdict on_message(int src, int dest, int tag, Bytes& payload)
      EXCLUDES(mu_);

  // --- daemon lifecycle ------------------------------------------------
  /// Counts a fetch request seen by `rank`'s daemon (crash_after_fetches
  /// triggers key off this).
  void note_fetch_request(int rank) EXCLUDES(mu_);
  /// False when a plan rule or a manual kill says the daemon at `rank` is
  /// dead right now (`vnow` = the rank's virtual clock, or -1 when no
  /// clock is wired). A false return is counted as fault.daemon_dropped.
  bool daemon_alive(int rank, double vnow) EXCLUDES(mu_);
  /// Manual overrides for scenario tests; kill wins over every rule until
  /// revive_daemon() returns the rank to plan control.
  void kill_daemon(int rank) EXCLUDES(mu_);
  void revive_daemon(int rank) EXCLUDES(mu_);

  // --- stragglers ------------------------------------------------------
  double network_multiplier(int rank) const;
  double storage_multiplier(int rank) const;

  // --- backend ---------------------------------------------------------
  /// Verdict for one read of `path`'s `size`-byte object by `rank`'s
  /// backend, drawn per (rule, rank, path, read number).
  BackendVerdict backend_get_action(int rank, std::string_view path,
                                    std::size_t size) EXCLUDES(mu_);

  const FaultPlan& plan() const { return plan_; }
  obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// Canonical, order-independent dump of every injected fault
  /// ("kind rule=<i> src->dest tag=<bucket> seq=<n>" lines, sorted; a
  /// corruption adds " off=<a>,<b>", the two flipped byte offsets).
  /// Identical across runs with the same seed and per-channel traffic.
  std::string schedule_dump() const EXCLUDES(mu_);
  /// Total faults injected so far (all kinds).
  std::uint64_t faults_injected() const EXCLUDES(mu_);

 private:
  struct Event {
    char kind;  // 'D'rop 'L'delay 'U'dup 'C'orrupt 'K'daemon-drop 'B'ackend
    int rule;
    int src;
    int dest;
    int tag_bucket;
    std::uint64_t seq;
    std::int64_t off_a = -1;  // flipped byte offsets; -1 = not a corruption
    std::int64_t off_b = -1;
  };

  std::uint64_t next_seq(std::uint64_t channel_key) REQUIRES(mu_);
  void log_event(Event e) REQUIRES(mu_);
  bool spend_budget(std::vector<std::uint64_t>& used, std::size_t rule,
                    std::uint64_t max_faults) REQUIRES(mu_);

  const FaultPlan plan_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;

  obs::Counter& msg_dropped_;
  obs::Counter& msg_delayed_;
  obs::Counter& msg_duplicated_;
  obs::Counter& msg_corrupted_;
  obs::Counter& daemon_dropped_;
  obs::Counter& backend_errors_;
  obs::Counter& backend_corrupted_;

  mutable sync::Mutex mu_{"fault.injector.mu"};
  std::unordered_map<std::uint64_t, std::uint64_t> channel_seq_ GUARDED_BY(mu_);
  std::vector<std::uint64_t> msg_budget_used_ GUARDED_BY(mu_);
  std::vector<std::uint64_t> backend_budget_used_ GUARDED_BY(mu_);
  std::unordered_map<int, std::uint64_t> fetch_requests_ GUARDED_BY(mu_);
  std::unordered_map<int, int> manual_daemon_ GUARDED_BY(mu_);  // +1 dead, -1 forced-alive
  std::vector<Event> events_ GUARDED_BY(mu_);
};

}  // namespace fanstore::fault
