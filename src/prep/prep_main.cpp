// fanstore-prep: package a dataset directory into compressed partitions.
//
// Usage:
//   fanstore-prep --src=<dataset dir> --dst=<output dir>
//       [--partitions=N] [--compressor=lz4hc] [--threads=T]
//       [--broadcast=reldir1,reldir2] [--chunk-size=256k]
//
// Operates on the real filesystem; the dataset is read relative to --src
// and partitions + manifest.txt are written under --dst.
#include <cstdio>
#include <sstream>

#include "posixfs/local_vfs.hpp"
#include "prep/prepare.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace fanstore;
  const CliArgs args(argc, argv);
  const std::string src = args.get("src", "");
  const std::string dst = args.get("dst", "");
  if (src.empty() || dst.empty() || args.has("help")) {
    std::fprintf(stderr,
                 "usage: %s --src=<dataset dir> --dst=<output dir>\n"
                 "          [--partitions=N] [--compressor=NAME|auto-a,b,c]\n"
                 "          [--threads=T] [--broadcast=dir1,dir2]\n"
                 "          [--chunk-size=BYTES[k|m]]  (chunk size of the\n"
                 "           chunked frame every compressed file is written\n"
                 "           in; power of two in [4k, 2048m]; default: one\n"
                 "           chunk per file)\n",
                 args.program().c_str());
    return src.empty() || dst.empty() ? 2 : 0;
  }

  prep::PrepOptions options;
  options.num_partitions = static_cast<int>(args.get_int("partitions", 4));
  options.compressor = args.get("compressor", "lz4hc");
  options.threads = static_cast<int>(args.get_int("threads", 4));
  {
    std::stringstream ss(args.get("broadcast", ""));
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) options.broadcast_dirs.push_back(item);
    }
  }
  {
    std::string cs = args.get("chunk-size", "");
    if (!cs.empty()) {
      std::size_t mult = 1;
      const char tail = cs.back();
      if (tail == 'k' || tail == 'K') { mult = 1024; cs.pop_back(); }
      else if (tail == 'm' || tail == 'M') { mult = 1024 * 1024; cs.pop_back(); }
      options.chunk_size = static_cast<std::size_t>(std::stoull(cs)) * mult;
    }
  }

  try {
    posixfs::LocalVfs src_fs{src};
    posixfs::LocalVfs dst_fs{dst};
    const prep::Manifest m = prep::prepare_dataset(src_fs, "", dst_fs, "", options);
    std::size_t files = 0;
    for (const auto& p : m.partitions) files += p.num_files;
    for (const auto& p : m.broadcasts) files += p.num_files;
    std::printf("packaged %zu files into %zu partitions + %zu broadcast sets\n",
                files, m.partitions.size(), m.broadcasts.size());
    std::printf("raw %.1f MB -> packed %.1f MB (ratio %.2fx)\n",
                static_cast<double>(m.total_raw()) / 1e6,
                static_cast<double>(m.total_packed()) / 1e6, m.ratio());
    std::printf("manifest: %s/manifest.txt\n", dst.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fanstore-prep: %s\n", e.what());
    return 1;
  }
}
