// Tests for the data-preparation tool: enumeration, partitioning, manifest
// round-trips, auto compressor selection, and broadcast directories.
#include <gtest/gtest.h>

#include "compress/chunked.hpp"
#include "compress/registry.hpp"
#include "format/partition.hpp"
#include "posixfs/mem_vfs.hpp"
#include "prep/prepare.hpp"
#include "tests/test_data.hpp"

namespace fanstore::prep {
namespace {

void put(posixfs::MemVfs& fs, const std::string& path, std::size_t size,
         std::uint64_t seed) {
  posixfs::write_file(fs, path, as_view(testdata::text_like(size, seed)));
}

TEST(ListFilesTest, RecursiveSorted) {
  posixfs::MemVfs fs;
  put(fs, "ds/a/1", 10, 1);
  put(fs, "ds/a/2", 10, 2);
  put(fs, "ds/b/c/3", 10, 3);
  put(fs, "other/x", 10, 4);
  const auto files = list_files_recursive(fs, "ds");
  EXPECT_EQ(files, (std::vector<std::string>{"ds/a/1", "ds/a/2", "ds/b/c/3"}));
  EXPECT_TRUE(list_files_recursive(fs, "ghost").empty());
}

TEST(PrepTest, PartitionsRoundRobinAndManifest) {
  posixfs::MemVfs src, dst;
  for (int i = 0; i < 10; ++i) put(src, "ds/f" + std::to_string(i), 2000, i);
  PrepOptions opt;
  opt.num_partitions = 3;
  opt.compressor = "lz4hc";
  opt.threads = 2;
  const Manifest m = prepare_dataset(src, "ds", dst, "out", opt);
  ASSERT_EQ(m.partitions.size(), 3u);
  // 10 files round-robin over 3 partitions: 4 + 3 + 3.
  EXPECT_EQ(m.partitions[0].num_files, 4u);
  EXPECT_EQ(m.partitions[1].num_files, 3u);
  EXPECT_EQ(m.partitions[2].num_files, 3u);
  EXPECT_GT(m.ratio(), 1.5);  // text compresses

  // Manifest on disk parses identically.
  const Manifest loaded = load_manifest(dst, "out");
  EXPECT_EQ(loaded.serialize(), m.serialize());

  // Partition blobs decode back to the originals.
  std::size_t total = 0;
  for (const auto& p : m.partitions) {
    const auto blob = dst.slurp(p.path);
    ASSERT_TRUE(blob.has_value()) << p.path;
    for (const auto& view : format::scan_partition(as_view(*blob))) {
      const auto raw = format::extract_record(view);
      EXPECT_EQ(*posixfs::read_file(src, std::string(view.path)), raw);
      ++total;
    }
  }
  EXPECT_EQ(total, 10u);
}

TEST(PrepTest, BroadcastDirsSeparated) {
  posixfs::MemVfs src, dst;
  for (int i = 0; i < 6; ++i) put(src, "ds/train/f" + std::to_string(i), 500, i);
  for (int i = 0; i < 2; ++i) put(src, "ds/val/v" + std::to_string(i), 500, 100 + i);
  PrepOptions opt;
  opt.num_partitions = 2;
  opt.broadcast_dirs = {"val"};
  const Manifest m = prepare_dataset(src, "ds", dst, "out", opt);
  ASSERT_EQ(m.broadcasts.size(), 1u);
  EXPECT_EQ(m.broadcasts[0].num_files, 2u);
  std::size_t scattered = 0;
  for (const auto& p : m.partitions) scattered += p.num_files;
  EXPECT_EQ(scattered, 6u);  // validation files not double-packed
}

TEST(PrepTest, AutoCompressorPicksSmallest) {
  posixfs::MemVfs src, dst;
  // Text (lzma-friendly) and random (store-friendly) files.
  posixfs::write_file(src, "ds/text", as_view(testdata::text_like(20000, 1)));
  posixfs::write_file(src, "ds/rand", as_view(testdata::random_bytes(20000, 2)));
  PrepOptions opt;
  opt.num_partitions = 1;
  opt.compressor = "auto-store,lzma";
  const Manifest m = prepare_dataset(src, "ds", dst, "out", opt);
  const auto blob = dst.slurp(m.partitions[0].path);
  const auto views = format::scan_partition(as_view(*blob));
  ASSERT_EQ(views.size(), 2u);
  const auto& reg = compress::Registry::instance();
  for (const auto& v : views) {
    if (v.path == "ds/rand") {
      EXPECT_EQ(v.compressor, reg.id_by_name("store")) << "random data: store wins";
    } else {
      // Compressed files are chunked frames; the winner is the inner codec.
      EXPECT_TRUE(compress::is_chunked_id(v.compressor));
      EXPECT_EQ(compress::chunked_inner_id(v.compressor), reg.id_by_name("lzma"))
          << "text: lzma wins";
    }
  }
}

TEST(PrepTest, ErrorsAreReported) {
  posixfs::MemVfs src, dst;
  PrepOptions opt;
  EXPECT_THROW(prepare_dataset(src, "empty", dst, "out", opt), std::runtime_error);
  put(src, "ds/f", 100, 1);
  opt.compressor = "no-such-codec";
  EXPECT_THROW(prepare_dataset(src, "ds", dst, "out", opt), std::invalid_argument);
  opt.compressor = "lz4";
  opt.num_partitions = 0;
  EXPECT_THROW(prepare_dataset(src, "ds", dst, "out", opt), std::invalid_argument);
  // A bad chunk size is rejected even when every file is stored unframed.
  opt.num_partitions = 1;
  opt.compressor = "store";
  opt.chunk_size = 3000;
  EXPECT_THROW(prepare_dataset(src, "ds", dst, "out", opt), std::invalid_argument);
}

TEST(ManifestTest, ParseRejectsGarbage) {
  EXPECT_THROW(Manifest::parse("not a manifest"), std::runtime_error);
  EXPECT_THROW(Manifest::parse("fanstore-manifest v1\nbogus line here x y"),
               std::runtime_error);
}

TEST(PrepTest, DeterministicOutput) {
  posixfs::MemVfs src, dst1, dst2;
  for (int i = 0; i < 5; ++i) put(src, "ds/f" + std::to_string(i), 3000, i);
  PrepOptions opt;
  opt.num_partitions = 2;
  opt.threads = 4;
  prepare_dataset(src, "ds", dst1, "o", opt);
  prepare_dataset(src, "ds", dst2, "o", opt);
  for (const auto& path : dst1.list_files()) {
    EXPECT_EQ(dst1.slurp(path), dst2.slurp(path)) << path;
  }
}


TEST(PrepTest, BySizePlacementBalancesBytes) {
  // Sizes alternate large/small by sorted file name, so round-robin over 2
  // partitions puts every large file in one partition; greedy LPT balances.
  posixfs::MemVfs src, dst_rr, dst_lpt;
  for (int i = 0; i < 8; ++i) {
    const std::size_t size = i % 2 == 0 ? 30000 : 1000;
    posixfs::write_file(src, "ds/f" + std::to_string(i),
                        as_view(testdata::random_bytes(size, 10 + i)));
  }
  PrepOptions opt;
  opt.num_partitions = 2;
  opt.compressor = "store";
  auto imbalance = [](const Manifest& m) {
    std::size_t lo = SIZE_MAX, hi = 0;
    for (const auto& p : m.partitions) {
      lo = std::min(lo, p.packed_bytes);
      hi = std::max(hi, p.packed_bytes);
    }
    return static_cast<double>(hi) / static_cast<double>(lo);
  };
  const Manifest rr = prepare_dataset(src, "ds", dst_rr, "o", opt);
  opt.placement = Placement::kBySize;
  const Manifest lpt = prepare_dataset(src, "ds", dst_lpt, "o", opt);
  EXPECT_GT(imbalance(rr), 5.0);    // all big files on one side
  EXPECT_LT(imbalance(lpt), 1.15);  // near-perfect balance
  // Content is identical either way.
  std::size_t total = 0;
  for (const auto& p : lpt.partitions) total += p.num_files;
  EXPECT_EQ(total, 8u);
}

}  // namespace
}  // namespace fanstore::prep
