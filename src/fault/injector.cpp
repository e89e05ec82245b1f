#include "fault/injector.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <tuple>

#include "mpi/envelope.hpp"
#include "util/rng.hpp"

namespace fanstore::fault {

namespace {

// Replies use dedicated tag spaces (every one >= mpi::kFetchReplyTagBase)
// with a fresh tag per request; bucket them so a channel's sequence counter
// spans "all replies from src to dest" rather than one counter per tag.
constexpr int kReplyBucket = mpi::kFetchReplyTagBase;

int tag_bucket(int tag) { return tag >= kReplyBucket ? kReplyBucket : tag; }

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
  return splitmix64(s);
}

double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t channel_key(std::size_t rule, int src, int dest, int bucket) {
  return (static_cast<std::uint64_t>(rule) << 48) ^
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) ^
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dest)) << 16) ^
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(bucket));
}

/// The two byte offsets a corrupt verdict with `draw` flips in a
/// `size`-byte payload (size > 0).
std::array<std::size_t, 2> corrupt_offsets(std::uint64_t draw,
                                           std::size_t size) {
  const std::uint64_t h = mix(draw, 7);  // independent of the verdict bits
  return {static_cast<std::size_t>(h % size),
          static_cast<std::size_t>((h >> 17) % size)};
}

}  // namespace

void flip_bytes(Bytes& payload, std::uint64_t draw) {
  if (payload.empty()) return;
  const auto off = corrupt_offsets(draw, payload.size());
  payload[off[0]] ^= 0x5A;
  payload[off[1]] ^= 0xA5;  // 0x5A ^ 0xA5 != 0: a repeated offset still flips
}

FaultInjector::FaultInjector(FaultPlan plan, obs::MetricsRegistry* metrics)
    : plan_(std::move(plan)),
      owned_metrics_(metrics != nullptr ? nullptr
                                        : std::make_unique<obs::MetricsRegistry>()),
      metrics_(metrics != nullptr ? metrics : owned_metrics_.get()),
      msg_dropped_(metrics_->counter("fault.msg_dropped")),
      msg_delayed_(metrics_->counter("fault.msg_delayed")),
      msg_duplicated_(metrics_->counter("fault.msg_duplicated")),
      msg_corrupted_(metrics_->counter("fault.msg_corrupted")),
      daemon_dropped_(metrics_->counter("fault.daemon_dropped")),
      backend_errors_(metrics_->counter("fault.backend_errors")),
      backend_corrupted_(metrics_->counter("fault.backend_corrupted")) {
  sync::MutexLock lk(mu_);
  msg_budget_used_.assign(plan_.messages.size(), 0);
  backend_budget_used_.assign(plan_.backends.size(), 0);
}

std::uint64_t FaultInjector::next_seq(std::uint64_t key) {
  return channel_seq_[key]++;
}

void FaultInjector::log_event(Event e) { events_.push_back(e); }

bool FaultInjector::spend_budget(std::vector<std::uint64_t>& used,
                                 std::size_t rule, std::uint64_t max_faults) {
  if (used[rule] >= max_faults) return false;
  ++used[rule];
  return true;
}

MessageVerdict FaultInjector::on_message(int src, int dest, int tag,
                                         Bytes& payload) {
  MessageVerdict v;
  const int bucket = tag_bucket(tag);
  {
    sync::MutexLock lk(mu_);
    for (std::size_t i = 0; i < plan_.messages.size(); ++i) {
      const MessageRule& r = plan_.messages[i];
      if (!r.matches(src, dest, tag)) continue;
      const std::uint64_t key = channel_key(i, src, dest, bucket);
      const std::uint64_t seq = next_seq(key);
      if (seq < r.skip_first) continue;
      const std::uint64_t h = mix(plan_.seed, mix(key, seq));
      // Independent sub-draws so one rule can combine actions.
      if (r.drop_prob > 0 && unit(mix(h, 1)) < r.drop_prob &&
          spend_budget(msg_budget_used_, i, r.max_faults)) {
        v.drop = true;
        log_event({'D', static_cast<int>(i), src, dest, bucket, seq});
      }
      if (r.dup_prob > 0 && unit(mix(h, 2)) < r.dup_prob &&
          spend_budget(msg_budget_used_, i, r.max_faults)) {
        v.duplicate = true;
        log_event({'U', static_cast<int>(i), src, dest, bucket, seq});
      }
      if (r.corrupt_prob > 0 && unit(mix(h, 3)) < r.corrupt_prob &&
          spend_budget(msg_budget_used_, i, r.max_faults)) {
        Event e{'C', static_cast<int>(i), src, dest, bucket, seq};
        if (!payload.empty()) {
          const auto off = corrupt_offsets(h, payload.size());
          e.off_a = static_cast<std::int64_t>(off[0]);
          e.off_b = static_cast<std::int64_t>(off[1]);
          flip_bytes(payload, h);
          v.corrupted = true;
        }
        log_event(e);
      }
      if (r.delay_prob > 0 && r.delay_ms > 0 && unit(mix(h, 4)) < r.delay_prob &&
          spend_budget(msg_budget_used_, i, r.max_faults)) {
        v.delay_ms = std::max(v.delay_ms, r.delay_ms);
        log_event({'L', static_cast<int>(i), src, dest, bucket, seq});
      }
    }
  }
  // A dropped message never also arrives late or twice.
  if (v.drop) {
    v.duplicate = false;
    v.delay_ms = 0;
  }
  if (v.drop) msg_dropped_.inc();
  if (v.duplicate) msg_duplicated_.inc();
  if (v.corrupted) msg_corrupted_.inc();
  if (v.delay_ms > 0) msg_delayed_.inc();
  return v;
}

void FaultInjector::note_fetch_request(int rank) {
  sync::MutexLock lk(mu_);
  ++fetch_requests_[rank];
}

bool FaultInjector::daemon_alive(int rank, double vnow) {
  bool dead = false;
  {
    sync::MutexLock lk(mu_);
    const auto manual = manual_daemon_.find(rank);
    if (manual != manual_daemon_.end() && manual->second != 0) {
      dead = manual->second > 0;
    } else {
      const std::uint64_t served =
          fetch_requests_.count(rank) ? fetch_requests_.at(rank) : 0;
      for (const DaemonRule& r : plan_.daemons) {
        if (r.rank != kAnyRank && r.rank != rank) continue;
        if (r.crash_after_fetches > 0 && served > r.crash_after_fetches) {
          dead = true;
        }
        if (r.crash_at_vsec >= 0 && vnow >= 0 && vnow >= r.crash_at_vsec &&
            (r.restart_at_vsec < 0 || vnow < r.restart_at_vsec)) {
          dead = true;
        }
      }
    }
    if (dead) log_event({'K', -1, rank, rank, 0, 0});
  }
  if (dead) daemon_dropped_.inc();
  return !dead;
}

void FaultInjector::kill_daemon(int rank) {
  sync::MutexLock lk(mu_);
  manual_daemon_[rank] = 1;
}

void FaultInjector::revive_daemon(int rank) {
  sync::MutexLock lk(mu_);
  manual_daemon_[rank] = -1;
}

double FaultInjector::network_multiplier(int rank) const {
  double m = 1.0;
  for (const StragglerRule& r : plan_.stragglers) {
    if (r.rank == kAnyRank || r.rank == rank) m *= r.network_mult;
  }
  return m;
}

double FaultInjector::storage_multiplier(int rank) const {
  double m = 1.0;
  for (const StragglerRule& r : plan_.stragglers) {
    if (r.rank == kAnyRank || r.rank == rank) m *= r.storage_mult;
  }
  return m;
}

BackendVerdict FaultInjector::backend_get_action(int rank,
                                                 std::string_view path,
                                                 std::size_t size) {
  BackendVerdict v;
  {
    sync::MutexLock lk(mu_);
    for (std::size_t i = 0; i < plan_.backends.size(); ++i) {
      const BackendRule& r = plan_.backends[i];
      if (!r.matches(rank, path)) continue;
      // One read counter per (rule, rank, path): a path's draws do not
      // depend on how reads of other paths interleave with its own.
      const std::uint64_t key = mix(channel_key(i + 0x8000, rank, 0, 0),
                                    std::hash<std::string_view>{}(path));
      const std::uint64_t seq = next_seq(key);
      if (seq < r.skip_first) continue;
      const std::uint64_t h = mix(plan_.seed, mix(key, seq));
      if (r.fail_prob > 0 && unit(mix(h, 5)) < r.fail_prob &&
          spend_budget(backend_budget_used_, i, r.max_faults)) {
        v.action = BackendAction::kFail;
        log_event({'B', static_cast<int>(i), rank, rank, 0, seq});
        break;
      }
      if (r.corrupt_prob > 0 && unit(mix(h, 6)) < r.corrupt_prob &&
          spend_budget(backend_budget_used_, i, r.max_faults)) {
        v.action = BackendAction::kCorrupt;
        v.draw = h;
        Event e{'B', static_cast<int>(i), rank, rank, 1, seq};
        if (size > 0) {
          const auto off = corrupt_offsets(h, size);
          e.off_a = static_cast<std::int64_t>(off[0]);
          e.off_b = static_cast<std::int64_t>(off[1]);
        }
        log_event(e);
        break;
      }
    }
  }
  if (v.action == BackendAction::kFail) backend_errors_.inc();
  if (v.action == BackendAction::kCorrupt) backend_corrupted_.inc();
  return v;
}

std::string FaultInjector::schedule_dump() const {
  std::vector<Event> events;
  {
    sync::MutexLock lk(mu_);
    events = events_;
  }
  // Canonical order: independent of cross-channel thread interleaving.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.kind, a.rule, a.src, a.dest, a.tag_bucket, a.seq) <
           std::tie(b.kind, b.rule, b.src, b.dest, b.tag_bucket, b.seq);
  });
  std::string out;
  char line[128];
  for (const Event& e : events) {
    int n = std::snprintf(line, sizeof(line), "%c rule=%d %d->%d tag=%d seq=%llu",
                          e.kind, e.rule, e.src, e.dest, e.tag_bucket,
                          static_cast<unsigned long long>(e.seq));
    if (e.off_a >= 0) {
      n += std::snprintf(line + n, sizeof(line) - static_cast<std::size_t>(n),
                         " off=%lld,%lld", static_cast<long long>(e.off_a),
                         static_cast<long long>(e.off_b));
    }
    out.append(line, static_cast<std::size_t>(n));
    out += '\n';
  }
  return out;
}

std::uint64_t FaultInjector::faults_injected() const {
  sync::MutexLock lk(mu_);
  return events_.size();
}

}  // namespace fanstore::fault
