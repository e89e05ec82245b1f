// ResNet-50/ImageNet with asynchronous I/O (prefetch, Fig. 5b) across a
// multi-node FanStore deployment — the §VII-F scalability workload.
//
// Exercises: broadcast (validation) partitions every node holds, remote
// fetches for scattered training data, checkpoint writes each epoch, and
// the metadata-storm-free enumeration step.
//
// Run: ./imagenet_resnet [--nodes=8] [--epochs=2] [--batch=16]
//                         [--trace=trace.json] [--metrics]
//
// --trace=PATH records every fs/cache/daemon/trainer span into a Chrome
// trace (open chrome://tracing or https://ui.perfetto.dev and load the
// file); --metrics dumps rank 0's metric registry after training.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/instance.hpp"
#include "dlsim/apps.hpp"
#include "dlsim/datagen.hpp"
#include "dlsim/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "posixfs/interceptor.hpp"
#include "posixfs/mem_vfs.hpp"
#include "prep/prepare.hpp"
#include "simnet/models.hpp"
#include "util/cli.hpp"

using namespace fanstore;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int nodes = static_cast<int>(args.get_int("nodes", 8));
  const int epochs = static_cast<int>(args.get_int("epochs", 2));
  const std::size_t batch = static_cast<std::size_t>(args.get_int("batch", 16));
  const std::string trace_path = args.get("trace", "");
  const bool dump_metrics = args.get_bool("metrics", false);
  if (!trace_path.empty()) obs::TraceRecorder::global().enable(true);

  const auto app = dlsim::resnet50_gtx();
  const auto cluster = simnet::gtx_cluster();
  const auto spec = dlsim::dataset_spec(app.dataset);
  const std::size_t file_bytes = 32 * 1024;  // scaled-down JPEGs
  const double t_iter =
      app.profile.t_iter_s * static_cast<double>(file_bytes) / spec.paper_avg_file_bytes;

  // Dataset: train/ scattered across nodes, val/ broadcast to every node.
  posixfs::MemVfs shared;
  {
    posixfs::MemVfs source;
    const std::size_t train_files = batch * 2 * static_cast<std::size_t>(nodes);
    for (std::size_t i = 0; i < train_files; ++i) {
      posixfs::write_file(
          source, "imagenet/train/c" + std::to_string(i % 10) + "/img" +
                      std::to_string(i) + ".jpg",
          as_view(dlsim::generate_file_sized(app.dataset, i, file_bytes)));
    }
    for (std::size_t i = 0; i < 8; ++i) {
      posixfs::write_file(source, "imagenet/val/img" + std::to_string(i) + ".jpg",
                          as_view(dlsim::generate_file_sized(app.dataset, 1000 + i,
                                                             file_bytes)));
    }
    prep::PrepOptions opt;
    opt.num_partitions = nodes;
    opt.compressor = "store";  // Table IV: JPEGs do not compress
    opt.broadcast_dirs = {"val"};
    prep::prepare_dataset(source, "imagenet", shared, "packed", opt);
  }

  std::vector<double> tput(static_cast<std::size_t>(nodes), 0.0);
  std::string metrics_text;  // rank 0's registry dump, printed after the world
  mpi::run_world(nodes, [&](mpi::Comm& comm) {
    simnet::VirtualClock clock;
    core::Instance::Options opt;
    opt.fs.cost.enabled = true;
    opt.fs.cost.read_path = simnet::fanstore_read_path(cluster);
    opt.fs.cost.network = cluster.network;
    opt.fs.clock = &clock;
    core::Instance inst(comm, opt);
    const auto manifest = prep::load_manifest(shared, "packed");
    inst.load_from_shared(shared, manifest.partition_paths(),
                          manifest.broadcast_paths());
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    posixfs::Interceptor posix;
    posix.mount("fs", &inst.fs());

    // Enumeration (the step that melts shared-FS metadata servers) is
    // local: list every training file through readdir()/stat().
    const auto files = prep::list_files_recursive(posix, "fs/imagenet/train");
    if (comm.rank() == 0) {
      std::printf("enumerated %zu training files locally\n", files.size());
    }

    dlsim::TrainerOptions topt;
    topt.t_iter_s = t_iter;
    topt.batch_per_rank = batch;
    topt.epochs = epochs;
    topt.async_io = true;  // prefetch pipeline
    topt.io_parallelism = 4;
    topt.io_clock = &clock;
    topt.comm = &comm;
    topt.metrics = &inst.metrics();
    const auto result = dlsim::run_training(posix, files, topt);
    tput[static_cast<std::size_t>(comm.rank())] = result.items_per_s;

    // "Validation" after the last epoch: every node reads the broadcast
    // set locally (zero interconnect traffic for it).
    const obs::Counter& remote = inst.metrics().counter("fs.remote_fetches");
    const auto before = remote.value();
    for (int i = 0; i < 8; ++i) {
      (void)posixfs::read_file(posix, "fs/imagenet/val/img" + std::to_string(i) + ".jpg");
    }
    const auto after = remote.value();
    if (comm.rank() == 0 && after != before) {
      std::printf("WARNING: broadcast partition read went remote\n");
    }

    // Per-epoch checkpoint through the same POSIX surface.
    if (comm.rank() == 0) {
      for (int e = 1; e <= epochs; ++e) {
        posixfs::write_file(posix, "fs/ckpt/model_epoch_" + std::to_string(e) + ".h5",
                            as_view(Bytes(8192, static_cast<std::uint8_t>(e))));
      }
      std::printf("wrote %d checkpoints (write-once, metadata forwarded)\n", epochs);
    }
    comm.barrier();
    if (comm.rank() == 0) metrics_text = inst.metrics_dump();
    inst.stop();
  });

  if (!trace_path.empty()) {
    obs::TraceRecorder::global().write_chrome_json(trace_path);
    std::printf("wrote %zu trace events to %s (load in chrome://tracing)\n",
                obs::TraceRecorder::global().event_count(), trace_path.c_str());
  }
  if (dump_metrics) {
    std::printf("\n--- rank 0 metrics ---\n%s", metrics_text.c_str());
  }

  double total = 0;
  for (double t : tput) total += t;
  std::printf("\n%d nodes x %d procs: %.1f images/s aggregate (%.1f per node)\n",
              nodes, cluster.procs_per_node, total, total / nodes);
  std::printf("async prefetch hid the I/O behind %.0f ms compute iterations\n",
              t_iter * 1000);
  return 0;
}
