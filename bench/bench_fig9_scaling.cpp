// Figure 9: weak-scaling of (a) SRGAN on GTX with lzsse8, (b) ResNet-50 on
// GTX, and (c) ResNet-50 on the 512-node CPU cluster — FanStore vs the
// shared file system.
//
// FanStore curves run the real multi-rank stack (ranks = threads, remote
// fetches through the daemon protocol, virtual-time device costs). The
// Lustre comparison is computed from the shared-FS device model plus the
// metadata-server queue; at 512 nodes the MDS saturates and the startup
// enumeration alone exceeds an hour — the paper's §VII-F anecdote.
#include "bench/bench_util.hpp"
#include "core/instance.hpp"
#include "dlsim/apps.hpp"
#include "dlsim/datagen.hpp"
#include "dlsim/trainer.hpp"
#include "simnet/models.hpp"

using namespace fanstore;

namespace {

// Per-rank generated file size (small so 512 rank-threads fit in RAM; the
// compute time is scaled by the same factor to preserve the I/O:compute
// ratio).
struct ScalingCase {
  dlsim::AppCase app;
  simnet::ClusterSpec cluster;
  std::string codec;
  std::size_t file_bytes;
  std::size_t batch_per_rank;
};

// Runs weak scaling at `nodes` ranks; returns aggregate items/sec.
double run_fanstore(const ScalingCase& sc, int nodes) {
  const auto spec = dlsim::dataset_spec(sc.app.dataset);
  const double scale = static_cast<double>(sc.file_bytes) / spec.paper_avg_file_bytes;
  const double t_iter = sc.app.profile.t_iter_s * scale;
  const int files_per_rank = static_cast<int>(sc.batch_per_rank) * 2;

  std::vector<double> tput(static_cast<std::size_t>(nodes), 0.0);
  mpi::run_world(nodes, [&](mpi::Comm& comm) {
    simnet::VirtualClock clock;
    core::Instance::Options opt;
    opt.fs.cost.enabled = true;
    opt.fs.cost.read_path = simnet::fanstore_read_path(sc.cluster);
    opt.fs.cost.network = sc.cluster.network;
    opt.fs.clock = &clock;
    opt.fs.cache_bytes = 4 * sc.file_bytes;
    core::Instance inst(comm, opt);

    std::vector<std::pair<std::string, Bytes>> mine;
    std::vector<std::string> all_paths;
    for (int r = 0; r < nodes; ++r) {
      for (int i = 0; i < files_per_rank; ++i) {
        const std::string path =
            "ds/r" + std::to_string(r) + "/f" + std::to_string(i);
        all_paths.push_back(path);
        if (r == comm.rank()) {
          mine.emplace_back(path,
                            dlsim::generate_file_sized(
                                sc.app.dataset,
                                static_cast<std::uint64_t>(r * 1000 + i),
                                sc.file_bytes));
        }
      }
    }
    inst.load_partition_blob(as_view(bench::make_partition(mine, sc.codec)),
                             static_cast<std::uint32_t>(comm.rank()));
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    dlsim::TrainerOptions topt;
    topt.t_iter_s = t_iter;
    topt.batch_per_rank = sc.batch_per_rank;
    topt.epochs = 1;
    topt.max_iterations = 2;
    topt.async_io = sc.app.profile.async_io;
    topt.io_parallelism = sc.app.profile.io_parallelism;
    topt.io_clock = &clock;
    topt.comm = &comm;
    topt.compute_jitter = 0.1;  // OS noise: the dominant weak-scaling loss
    topt.seed = static_cast<std::uint64_t>(comm.rank()) + 1;
    const auto result = dlsim::run_training(inst.fs(), all_paths, topt);
    tput[static_cast<std::size_t>(comm.rank())] = result.items_per_s;
    comm.barrier();
    inst.stop();
  });
  double total = 0;
  for (double t : tput) total += t;
  return total;
}

// Analytic shared-FS (Lustre) steady-state throughput: the minimum of the
// compute bound, the MDS open() capacity, and the aggregate OST bandwidth.
// (An open queueing system above any of these caps queues without bound.)
double lustre_items_per_s(const ScalingCase& sc, int nodes) {
  const auto spec = dlsim::dataset_spec(sc.app.dataset);
  const double scale = static_cast<double>(sc.file_bytes) / spec.paper_avg_file_bytes;
  const double t_iter = sc.app.profile.t_iter_s * scale;
  const simnet::StorageModel lustre = sc.cluster.shared_fs;
  const simnet::MetadataServerModel mds = sc.cluster.shared_fs_mds;

  // Compute-bound rate if the device keeps up (async prefetch pipeline).
  const double per_file = lustre.file_read_time(sc.file_bytes);
  const double io = static_cast<double>(sc.batch_per_rank) * per_file /
                    sc.app.profile.io_parallelism;
  const double iter = sc.app.profile.async_io ? std::max(t_iter, io) : t_iter + io;
  const double compute_bound = nodes * static_cast<double>(sc.batch_per_rank) / iter;
  // Every file read is at least one MDS op (open), and data flows through
  // a shared OST pool (~10 GB/s effective for small random reads).
  const double mds_bound = mds.capacity_ops();
  const double ost_bound = 10e9 / static_cast<double>(sc.file_bytes);
  return std::min({compute_bound, mds_bound, ost_bound});
}

// Startup enumeration time on the shared FS (the §II-B1 metadata storm):
// every node lists the full dataset with its I/O threads; the MDS serves
// at most capacity_ops() in aggregate.
double lustre_enumeration_s(const simnet::ClusterSpec& cluster, int nodes,
                            double num_files, int io_threads_per_node) {
  const double per_thread_rate = 2000.0;  // stat() issue rate per I/O thread
  const double offered = nodes * io_threads_per_node * per_thread_rate;
  const double served = std::min(offered, cluster.shared_fs_mds.capacity_ops());
  // Each node must complete `num_files` ops; nodes share `served` fairly.
  return num_files / (served / nodes);
}

// FanStore startup: each rank loads dataset_bytes/nodes of partitions from
// the shared FS (bandwidth-bound, no metadata storm), then one metadata exchange.
double fanstore_startup_s(const ScalingCase& sc, int nodes, double dataset_bytes) {
  const double per_node = dataset_bytes / nodes;
  return per_node / sc.cluster.shared_fs.bandwidth_bps + 0.5 /*metadata exchange*/;
}

void scaling_study(const char* title, const ScalingCase& sc,
                   const std::vector<int>& node_counts, bool with_lustre,
                   double paper_dataset_bytes, double paper_num_files) {
  bench::section(title);
  std::vector<std::string> header{"nodes", "procs", "FanStore items/s",
                                  "weak-scale eff"};
  if (with_lustre) {
    header.insert(header.end(), {"Lustre items/s", "Lustre eff", "Lustre startup"});
  }
  bench::Table table(header);
  double base = 0;
  double lustre_base = 0;
  for (const int n : node_counts) {
    const double tput = run_fanstore(sc, n);
    if (n == node_counts.front()) base = tput / n;
    std::vector<std::string> cells{std::to_string(n),
                                   std::to_string(n * sc.cluster.procs_per_node),
                                   bench::fmt("%.1f", tput),
                                   bench::fmt("%.1f%%", 100.0 * tput / (base * n))};
    if (with_lustre) {
      const double lt = lustre_items_per_s(sc, n);
      if (n == node_counts.front()) lustre_base = lt / n;
      const double startup = lustre_enumeration_s(sc.cluster, n, paper_num_files, 4);
      cells.push_back(bench::fmt("%.1f", lt));
      cells.push_back(bench::fmt("%.1f%%", 100.0 * lt / (lustre_base * n)));
      cells.push_back(startup > 3600 ? std::string("> 1 hour (never starts)")
                                     : bench::fmt("%.0f s", startup));
    }
    table.row(std::move(cells));
  }
  table.print();
  if (with_lustre) {
    std::printf("(FanStore startup at the largest scale: %.0f s partition load +"
                " metadata exchange)\n",
                fanstore_startup_s(sc, node_counts.back(), paper_dataset_bytes));
  }
}

}  // namespace

int main() {
  // (a) SRGAN on GTX with lzsse8 (paper: 97.9% weak scaling at 64 GPUs).
  scaling_study("Figure 9(a): SRGAN weak scaling on GTX (lzsse8)",
                {dlsim::srgan_gtx(), simnet::gtx_cluster(), "lzsse8",
                 /*file_bytes=*/64 * 1024, /*batch_per_rank=*/16},
                {1, 2, 4, 8, 16}, /*with_lustre=*/false, 500e9, 0.6e6);

  // (b) ResNet-50 on GTX (paper: 90.4% at 64 GPUs; Lustre trails badly).
  scaling_study("Figure 9(b): ResNet-50 weak scaling on GTX, FanStore vs Lustre",
                {dlsim::resnet50_gtx(), simnet::gtx_cluster(), "store",
                 /*file_bytes=*/32 * 1024, /*batch_per_rank=*/16},
                {1, 2, 4, 8, 16}, /*with_lustre=*/true, 140e9, 1.3e6);

  // (c) ResNet-50 on the CPU cluster to 512 nodes (paper: 92.2%).
  scaling_study("Figure 9(c): ResNet-50 weak scaling on CPU, 32..512 nodes",
                {dlsim::resnet50_cpu(), simnet::cpu_cluster(), "store",
                 /*file_bytes=*/8 * 1024, /*batch_per_rank=*/8},
                {32, 64, 128, 256, 512}, /*with_lustre=*/true, 140e9, 1.3e6);

  bench::section("Shared-FS startup at scale (the §VII-F anecdote)");
  bench::Table table({"nodes", "enumeration time (1.3M files, 4 I/O threads/node)"});
  for (const int n : {4, 64, 512}) {
    const double t = lustre_enumeration_s(simnet::cpu_cluster(), n, 1.3e6, 4);
    table.row({std::to_string(n),
               t > 3600 ? std::string("> 1 hour — training never starts")
                        : bench::fmt("%.0f s", t)});
  }
  table.print();
  std::printf("\npaper: at 512 nodes 'the same case using the Lustre file system ...\n"
              "ran for one hour without starting training'.\n");
  return 0;
}
