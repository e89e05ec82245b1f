// Data preparation tool (§V-B): packages a dataset directory into several
// compressed partitions using the Table I representation.
//
// Flow: enumerate files under the source root, split the list into
// `num_partitions` chunks, let worker threads compress files (round-robin
// over chunks), concatenate per-partition, write partitions + a manifest to
// the destination (shared) filesystem. Broadcast directories (validation
// data every node reads in full) are packaged into separate partitions
// flagged for all-ranks loading.
#pragma once

#include <string>
#include <vector>

#include "compress/compressor.hpp"
#include "posixfs/vfs.hpp"

namespace fanstore::prep {

enum class Placement {
  kRoundRobin,  // by file index (the paper's scheme)
  kBySize,      // greedy longest-processing-time: balances partition bytes
                // so every node's burst buffer fills evenly on skewed
                // datasets
};

struct PrepOptions {
  int num_partitions = 4;
  /// Codec configuration name or family alias (see compress::Registry);
  /// "auto-<name1,name2,...>" tries each candidate per file and keeps the
  /// smallest output (per-file compressor field makes this free to read).
  std::string compressor = "lz4hc";
  int threads = 4;
  /// Source subdirectories broadcast to every node (§V-B).
  std::vector<std::string> broadcast_dirs;
  Placement placement = Placement::kRoundRobin;
  /// Chunk size of the chunked container (compress/chunked.hpp) that every
  /// compressed file is written in; "store" files stay plain bytes. 0 (the
  /// default) means one chunk per file, which keeps each file one
  /// compressed object. A power of two in [4 KiB, 2 GiB] splits larger
  /// files: they decode in parallel and serve range reads chunk by chunk,
  /// at the cost of a 16-byte table entry per chunk and smaller
  /// compression contexts.
  std::size_t chunk_size = 0;
};

struct PartitionInfo {
  std::string path;       // within the destination Vfs
  std::size_t num_files = 0;
  std::size_t raw_bytes = 0;
  std::size_t packed_bytes = 0;
};

struct Manifest {
  std::vector<PartitionInfo> partitions;
  std::vector<PartitionInfo> broadcasts;

  std::vector<std::string> partition_paths() const;
  std::vector<std::string> broadcast_paths() const;

  std::size_t total_raw() const;
  std::size_t total_packed() const;
  /// Dataset-level compression ratio (>= 1 when compression wins).
  double ratio() const;

  std::string serialize() const;
  static Manifest parse(const std::string& text);
};

/// Packages `src_root` (within `src`) into partitions under `dst_root`
/// (within `dst`), writing "<dst_root>/manifest.txt" plus
/// "<dst_root>/part-NNN.fst" and "<dst_root>/bcast-NNN.fst" files.
/// Returns the manifest. Deterministic for a given input set.
Manifest prepare_dataset(posixfs::Vfs& src, const std::string& src_root,
                         posixfs::Vfs& dst, const std::string& dst_root,
                         const PrepOptions& options);

/// Loads and parses "<dst_root>/manifest.txt".
Manifest load_manifest(posixfs::Vfs& dst, const std::string& dst_root);

/// Recursively lists all regular files under `root` (sorted, relative to
/// the Vfs root — the enumeration step that hammers metadata servers in
/// §II-B1, here done once at preparation time).
std::vector<std::string> list_files_recursive(posixfs::Vfs& fs,
                                              const std::string& root);

}  // namespace fanstore::prep
