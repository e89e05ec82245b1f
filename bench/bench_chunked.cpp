// Chunked-container benchmark: the two wins the framing buys on the read
// hot path, measured and recorded.
//
//   1. Whole-file decode: one >= 32 MiB object (deflate-6 inner) decoded
//      with 1/2/4/8 worker threads through ChunkedCompressor — the
//      open()-eager path's parallel speedup. The acceptance bar scales
//      with the host: at the largest measured thread count t <= min(hw, 8)
//      the speedup must reach 0.375 * t (3x at 8 threads, 1.5x at 4), and
//      the JSON records which t was gated and what it demanded.
//   2. Partial reads: a lazy FanStoreFs pread of a 64 KiB window must
//      decode at most the two overlapping chunks. This is machine
//      independent, cross-checked against the "chunked.*" registry
//      counters, and the process exits non-zero on any violation.
//   3. Framing overhead: container bytes vs the flat stream, per chunk
//      size (smaller chunks = more table entries + worse ratio).
//
// Emits BENCH_chunked.json. tools/ci.sh runs `--quick` as a smoke test.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "compress/chunked.hpp"
#include "compress/registry.hpp"
#include "core/instance.hpp"
#include "format/partition.hpp"
#include "mpi/comm.hpp"
#include "util/timer.hpp"

using namespace fanstore;

namespace {

std::string json_array_d(const std::vector<double>& v, const char* f = "%.4f") {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += bench::fmt(f, v[i]);
  }
  return s + "]";
}

std::string json_array_z(const std::vector<std::size_t>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(v[i]);
  }
  return s + "]";
}

// Compressible-but-not-trivial payload so deflate does real work.
Bytes sample_object(std::size_t bytes) {
  Bytes b(bytes);
  std::uint64_t x = 88172645463325252ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b[i] = static_cast<std::uint8_t>('a' + (x % 26));
    if (x % 5 != 0 && i > 64) b[i] = b[i - 64];
  }
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_chunked.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t object_bytes = quick ? (std::size_t{4} << 20)
                                         : (std::size_t{32} << 20);
  const auto& reg = compress::Registry::instance();
  const Bytes object = sample_object(object_bytes);
  bool ok = true;

  // --- 1. Whole-file parallel decode ------------------------------------
  bench::section("Whole-file decode, chunked-256k+deflate-6 (parallel)");
  const auto* chunked = dynamic_cast<const compress::ChunkedCompressor*>(
      reg.by_name("chunked-256k+deflate-6"));
  if (chunked == nullptr) {
    std::fprintf(stderr, "bench_chunked: codec resolution failed\n");
    return 1;
  }
  const Bytes packed = chunked->compress_with(as_view(object), hw == 0 ? 1 : hw);
  const std::vector<int> thread_counts{1, 2, 4, 8};
  std::vector<double> decode_sec;
  bench::Table t1({"threads", "decode s", "speedup vs 1"});
  for (const int t : thread_counts) {
    // Best-of-3 to shave scheduler noise.
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer timer;
      const Bytes plain = chunked->decompress_with(
          as_view(packed), object.size(), static_cast<std::size_t>(t));
      const double sec = timer.elapsed_sec();
      if (plain != object) {
        std::fprintf(stderr, "bench_chunked: decode mismatch at %d threads\n", t);
        return 1;
      }
      if (sec < best) best = sec;
    }
    decode_sec.push_back(best);
    t1.row({std::to_string(t), bench::fmt("%.4f", best),
            bench::fmt("%.2fx", decode_sec[0] / best)});
  }
  t1.print();
  const double speedup8 = decode_sec.front() / decode_sec.back();
  std::printf("\nspeedup at 8 threads: %.2fx (hardware_concurrency=%u)\n",
              speedup8, hw);
  // Gate the largest measured thread count the host has cores for.
  const int cores = static_cast<int>(std::min(std::max(hw, 1u), 8u));
  std::size_t gate = 0;
  while (gate + 1 < thread_counts.size() && thread_counts[gate + 1] <= cores) {
    ++gate;
  }
  const int gate_threads = thread_counts[gate];
  const double gate_speedup = decode_sec.front() / decode_sec[gate];
  const double gate_min = 0.375 * gate_threads;
  if (gate_speedup < gate_min) {
    std::fprintf(stderr,
                 "bench_chunked: expected >= %.2fx decode speedup at %d "
                 "threads, got %.2fx\n",
                 gate_min, gate_threads, gate_speedup);
    ok = false;
  }

  // --- 2. Partial preads through a lazy FanStoreFs -----------------------
  bench::section("Partial 64 KiB preads, lazy open (per chunk size)");
  const std::vector<std::size_t> chunk_sizes{
      std::size_t{64} << 10, std::size_t{256} << 10, std::size_t{1} << 20};
  std::vector<double> pread_us;
  std::vector<std::size_t> bytes_decoded_per_pread;
  std::vector<double> framing_overhead_pct;
  const Bytes flat = reg.by_name("deflate-6")->compress(as_view(object));
  bench::Table t2({"chunk", "avg pread us", "decoded B/pread", "max chunks",
                   "framing +%"});
  for (const std::size_t cs : chunk_sizes) {
    const std::string codec_name =
        "chunked-" + std::to_string(cs >> 10) + "k+deflate-6";
    const Bytes cpacked = reg.by_name(codec_name)->compress(as_view(object));
    const double overhead =
        100.0 * (static_cast<double>(cpacked.size()) /
                     static_cast<double>(flat.size()) -
                 1.0);
    framing_overhead_pct.push_back(overhead);

    double total_us = 0;
    std::size_t preads = 0;
    std::uint64_t decoded_bytes = 0;
    std::uint64_t decoded_chunks_max = 0;
    mpi::run_world(1, [&](mpi::Comm& comm) {
      core::Instance::Options opt;
      opt.fs.lazy_chunked_open = true;
      opt.fs.cache_bytes = 2 * object_bytes;
      core::Instance inst(comm, opt);
      format::PartitionWriter w;
      format::FileRecord rec;
      rec.path = "obj";
      rec.compressor = reg.id_by_name(codec_name);
      rec.data = cpacked;
      rec.stat.size = object.size();
      rec.stat.compressed_size = cpacked.size();
      w.add(rec);
      const Bytes blob = w.serialize();
      inst.load_partition_blob(as_view(blob), 0);
      inst.exchange_metadata();

      auto& fs = inst.fs();
      const int fd = fs.open("obj", posixfs::OpenMode::kRead);
      if (fd < 0) {
        std::fprintf(stderr, "bench_chunked: open failed\n");
        ok = false;
        return;
      }
      Bytes buf(std::size_t{64} << 10);
      std::uint64_t x = 0x9e3779b97f4a7c15ull;
      const int windows = quick ? 8 : 32;
      for (int i = 0; i < windows; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t off = (x >> 20) % (object.size() - buf.size());
        const auto before = inst.metrics().snapshot();
        WallTimer timer;
        if (fs.pread(fd, MutByteView(buf.data(), buf.size()), off) !=
            static_cast<std::int64_t>(buf.size())) {
          std::fprintf(stderr, "bench_chunked: pread failed\n");
          ok = false;
          break;
        }
        total_us += timer.elapsed_us();
        ++preads;
        const auto after = inst.metrics().snapshot();
        const std::uint64_t d_chunks =
            after.counter("chunked.chunks_decoded") -
            before.counter("chunked.chunks_decoded");
        const std::uint64_t d_bytes = after.counter("chunked.bytes_decoded") -
                                      before.counter("chunked.bytes_decoded");
        decoded_bytes += d_bytes;
        if (d_chunks > decoded_chunks_max) decoded_chunks_max = d_chunks;
        // The acceptance bar: a 64 KiB window may decode at most the two
        // chunks it can overlap, never the whole object.
        if (d_chunks > 2 || d_bytes > 2 * cs) {
          std::fprintf(stderr,
                       "PARTIAL-READ VIOLATION: chunk=%zu window decoded "
                       "%llu chunks / %llu bytes (max 2 chunks, %zu bytes)\n",
                       cs, static_cast<unsigned long long>(d_chunks),
                       static_cast<unsigned long long>(d_bytes), 2 * cs);
          ok = false;
        }
      }
      fs.close(fd);
    });
    pread_us.push_back(preads > 0 ? total_us / static_cast<double>(preads) : 0);
    bytes_decoded_per_pread.push_back(
        preads > 0 ? static_cast<std::size_t>(decoded_bytes / preads) : 0);
    t2.row({std::to_string(cs >> 10) + "k",
            bench::fmt("%.1f", pread_us.back()),
            std::to_string(bytes_decoded_per_pread.back()),
            std::to_string(decoded_chunks_max),
            bench::fmt("%.2f", overhead)});
  }
  t2.print();

  const std::string header = bench::json_header("chunked", quick, "wall");
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_chunked: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "%s,\n"
               "  \"object_bytes\": %zu,\n"
               "  \"inner_codec\": \"deflate-6\",\n"
               "  \"whole_file_decode\": {\n"
               "    \"chunk_size\": %zu,\n"
               "    \"threads\": [1, 2, 4, 8],\n"
               "    \"seconds\": %s,\n"
               "    \"speedup_at_8_threads\": %.2f,\n"
               "    \"gate_threads\": %d,\n"
               "    \"gate_speedup\": %.2f,\n"
               "    \"gate_min_speedup\": %.3f\n"
               "  },\n"
               "  \"partial_pread_64k\": {\n"
               "    \"chunk_sizes\": %s,\n"
               "    \"avg_pread_us\": %s,\n"
               "    \"bytes_decoded_per_pread\": %s\n"
               "  },\n"
               "  \"framing_overhead_pct\": %s\n"
               "}\n",
               header.c_str(), object_bytes, std::size_t{256} << 10,
               json_array_d(decode_sec).c_str(), speedup8, gate_threads,
               gate_speedup, gate_min, json_array_z(chunk_sizes).c_str(),
               json_array_d(pread_us, "%.1f").c_str(),
               json_array_z(bytes_decoded_per_pread).c_str(),
               json_array_d(framing_overhead_pct, "%.2f").c_str());
  std::fclose(out);
  std::printf("\nwrote %s\n", json_path.c_str());
  if (!ok) {
    std::fprintf(stderr, "bench_chunked: acceptance checks FAILED\n");
    return 1;
  }
  std::printf("acceptance checks: OK\n");
  return 0;
}
