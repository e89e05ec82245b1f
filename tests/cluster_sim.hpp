// Deterministic single-threaded membership-churn simulator for the sharded
// metadata cluster (cluster/node.hpp, DESIGN.md §13).
//
// One ClusterSim owns a ManualTimeSource world of N ranks, each with a
// manual-mode ClusterNode (no service threads) and the store it owns. The
// sim is the scheduler: every pump() tick advances the virtual clock 1 ms
// and polls every live node once, so delayed deliveries from a churn
// FaultPlan mature and get served in a fully reproducible order. Client
// RPCs inside the nodes re-enter pump() through NodeOptions::pump while
// they wait, which is what lets a single test thread drive join / lookup /
// anti-entropy traffic between "concurrent" nodes.
//
// Kill semantics are process-crash semantics: a killed rank stops being
// polled (its mailbox rots) AND the shared FaultInjector marks its daemon
// dead, so even an already-delivered request would be dropped by the
// handler. revive() undoes both; the store survives, mirroring a process
// that restarts on the same node-local storage.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "fault/injector.hpp"
#include "format/file_stat.hpp"
#include "mpi/comm.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"

namespace fanstore::testsupport {

class ClusterSim {
 public:
  struct Options {
    int nranks = 3;
    int replication_factor = 2;
    /// Shared injector for the whole world (churn plans, kill/revive);
    /// nullptr runs fault-free.
    fault::FaultInjector* injector = nullptr;
  };

  explicit ClusterSim(Options opt)
      : opt_(opt), world_(opt.nranks, opt.injector, &clock_) {
    ranks_.reserve(static_cast<std::size_t>(opt_.nranks));
    for (int r = 0; r < opt_.nranks; ++r) {
      ranks_.push_back(std::make_unique<Rank>());
      Rank& rank = *ranks_.back();
      cluster::NodeOptions no;
      no.replication_factor = opt_.replication_factor;
      no.fault = opt_.injector;
      no.pump = [this] { pump(); };
      no.metrics = &rank.metrics;
      rank.comm = std::make_unique<mpi::Comm>(world_.comm(r));
      rank.node = std::make_unique<cluster::ClusterNode>(*rank.comm, no);
    }
  }

  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  cluster::ClusterNode& node(int r) { return *ranks_.at(idx(r))->node; }
  cluster::MetadataStore& store(int r) { return node(r).store(); }
  /// Rank r's "cluster.*" metrics.
  obs::MetricsRegistry& metrics(int r) { return ranks_.at(idx(r))->metrics; }
  mpi::Comm& comm(int r) { return *ranks_.at(idx(r))->comm; }
  util::ManualTimeSource& clock() { return clock_; }
  bool alive(int r) const { return ranks_.at(idx(r))->alive; }

  /// One scheduler tick: virtual time +1 ms (maturing delayed deliveries),
  /// then every live node serves its pending cluster requests.
  void pump() {
    clock_.advance_ms(1);
    for (auto& rank : ranks_) {
      if (rank->alive) rank->node->poll();
    }
  }

  void pump_n(int ticks) {
    for (int i = 0; i < ticks; ++i) pump();
  }

  /// Process crash: stop polling + injector-level kill (handlers on other
  /// ranks still see the rank in their view until someone declares it).
  void kill(int r) {
    ranks_.at(idx(r))->alive = false;
    if (opt_.injector != nullptr) opt_.injector->kill_daemon(r);
  }

  /// Restart on the same storage: the store's entries survive the crash.
  void revive(int r) {
    if (opt_.injector != nullptr) opt_.injector->revive_daemon(r);
    ranks_.at(idx(r))->alive = true;
  }

  /// Inserts a runtime-written entry on `r` locally (version 1, writer =
  /// r, the same versioning FanStoreFs::close stamps); replication to the
  /// shard's owners is the anti-entropy/rebalance machinery under test.
  void put_file(int r, const std::string& path, std::uint64_t size) {
    format::FileStat stat;
    stat.size = size;
    stat.compressed_size = size;
    stat.owner_rank = static_cast<std::uint32_t>(r);
    const cluster::VersionedStat entry{stat, 1, static_cast<std::uint32_t>(r)};
    store(r).insert_versioned(path, entry);
  }

  /// Inserts a dataset entry on `r` the way a partition load does
  /// (version 0, the only kind resolve()'s lookup cache keeps).
  void put_dataset_file(int r, const std::string& path, std::uint64_t size) {
    format::FileStat stat;
    stat.size = size;
    stat.compressed_size = size;
    stat.owner_rank = static_cast<std::uint32_t>(r);
    store(r).insert(path, stat);
  }

  /// Ranks whose node currently reports `self` as Joined in its own view.
  std::vector<int> live_joined() const {
    std::vector<int> out;
    for (int r = 0; r < opt_.nranks; ++r) {
      const Rank& rank = *ranks_.at(static_cast<std::size_t>(r));
      if (!rank.alive) continue;
      if (rank.node->view().get(r).state == cluster::MemberState::kJoined) {
        out.push_back(r);
      }
    }
    return out;
  }

  /// Drives gossip + rebalance on every live rank until a fixpoint: all
  /// live ranks share one view digest and a full rebalance round moves no
  /// bytes and drops no shards anywhere. Returns false if `max_rounds`
  /// rounds were not enough (under a drop-happy churn plan a round can be
  /// lost wholesale; callers pick a budget that makes that astronomically
  /// unlikely).
  bool converge(int max_rounds = 24) {
    for (int round = 0; round < max_rounds; ++round) {
      for (auto& rank : ranks_) {
        if (rank->alive) rank->node->gossip_now();
      }
      pump_n(8);  // let gossip (and any duplicated stragglers) land
      bool changed = false;
      for (auto& rank : ranks_) {
        if (!rank->alive) continue;
        const auto st = rank->node->rebalance();
        changed = changed || st.sync.changed || st.shards_dropped > 0;
      }
      pump_n(8);  // drain the hand-off pushes
      if (!changed && views_agree()) return true;
    }
    return false;
  }

  /// True when every live *participant* holds the identical membership
  /// view. A spare that never bootstrapped or joined has an empty view by
  /// design and does not vote.
  bool views_agree() const {
    std::uint64_t digest = 0;
    bool first = true;
    for (const auto& rank : ranks_) {
      if (!rank->alive) continue;
      if (rank->node->view().entries().empty()) continue;  // spare
      const std::uint64_t d = rank->node->view_digest();
      if (first) {
        digest = d;
        first = false;
      } else if (d != digest) {
        return false;
      }
    }
    return true;
  }

 private:
  struct Rank {
    std::unique_ptr<mpi::Comm> comm;
    obs::MetricsRegistry metrics;
    std::unique_ptr<cluster::ClusterNode> node;
    bool alive = true;
  };

  std::size_t idx(int r) const { return static_cast<std::size_t>(r); }

  Options opt_;
  util::ManualTimeSource clock_;
  mpi::World world_;
  std::vector<std::unique_ptr<Rank>> ranks_;
};

}  // namespace fanstore::testsupport
