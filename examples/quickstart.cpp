// Quickstart: the full FanStore flow on a tiny in-memory dataset.
//
//   1. generate a small dataset into a "shared filesystem"
//   2. package it into compressed partitions (fanstore-prep, §V-B)
//   3. launch a 4-rank FanStore "cluster" (ranks = threads)
//   4. each rank loads its partitions, exchanges metadata, starts a daemon
//   5. read files through the POSIX-style interface from any rank
//      (local decompress or remote fetch, transparently)
//   6. write a checkpoint through the same interface
//
// Run: ./quickstart [--ranks=4] [--files=24] [--compressor=lz4hc]
#include <cstdio>

#include "core/instance.hpp"
#include "dlsim/datagen.hpp"
#include "posixfs/interceptor.hpp"
#include "posixfs/mem_vfs.hpp"
#include "prep/prepare.hpp"
#include "util/cli.hpp"

using namespace fanstore;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int ranks = static_cast<int>(args.get_int("ranks", 4));
  const std::size_t nfiles = static_cast<std::size_t>(args.get_int("files", 24));
  const std::string codec = args.get("compressor", "lz4hc");

  // 1-2. Dataset + preparation on the shared filesystem.
  posixfs::MemVfs shared;
  {
    posixfs::MemVfs source;
    dlsim::materialize_dataset(source, "dataset", dlsim::DatasetKind::kLanguageTxt,
                               nfiles);
    prep::PrepOptions opt;
    opt.num_partitions = ranks;
    opt.compressor = codec;
    opt.threads = 4;
    const auto manifest = prep::prepare_dataset(source, "dataset", shared, "packed", opt);
    std::printf("prepared %zu partitions, ratio %.2fx (%.1f KB -> %.1f KB)\n",
                manifest.partitions.size(), manifest.ratio(),
                manifest.total_raw() / 1e3, manifest.total_packed() / 1e3);
  }

  // 3-6. The FanStore "cluster".
  mpi::run_world(ranks, [&](mpi::Comm& comm) {
    core::Instance inst(comm, {});
    const auto manifest = prep::load_manifest(shared, "packed");
    inst.load_from_shared(shared, manifest.partition_paths());
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    // Mount FanStore under /fs as the training program would see it.
    posixfs::Interceptor posix;
    posix.mount("fs", &inst.fs());

    // Enumerate the dataset — all metadata served from local RAM.
    const auto files = prep::list_files_recursive(posix, "fs/dataset");
    if (comm.rank() == 0) {
      std::printf("rank 0 sees %zu files through the mount point\n", files.size());
    }

    // Read a handful of files; remote ones are fetched transparently.
    std::size_t bytes = 0;
    for (std::size_t i = static_cast<std::size_t>(comm.rank()); i < files.size();
         i += static_cast<std::size_t>(comm.size())) {
      const auto data = posixfs::read_file(posix, files[i]);
      if (!data) {
        std::fprintf(stderr, "rank %d: failed to read %s\n", comm.rank(),
                     files[i].c_str());
        return;
      }
      bytes += data->size();
    }
    comm.barrier();
    const auto stats = inst.metrics().snapshot();
    std::printf(
        "rank %d: read %.1f KB  (cache hits %llu, local decompress %llu, "
        "remote fetches %llu)\n",
        comm.rank(), bytes / 1e3,
        static_cast<unsigned long long>(stats.counter("cache.hits")),
        static_cast<unsigned long long>(stats.counter("fs.local_misses")),
        static_cast<unsigned long long>(stats.counter("fs.remote_fetches")));

    // Write a checkpoint (write-once model, §IV-A).
    if (comm.rank() == 0) {
      const std::string ckpt = "fs/output/checkpoint_epoch_1.bin";
      const Bytes weights(4096, 0x42);
      if (posixfs::write_file(posix, ckpt, as_view(weights)) == 0) {
        std::printf("rank 0: wrote %s (%zu bytes)\n", ckpt.c_str(), weights.size());
      }
    }
    comm.barrier();
    std::printf("%s\n", inst.stats_report().c_str());
    comm.barrier();
    inst.stop();
  });
  std::printf("quickstart complete\n");
  return 0;
}
