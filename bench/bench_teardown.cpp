// Instance teardown benchmark: how much of a finished job's memory the
// process keeps once the job's Instance is gone.
//
// One process (a node daemon between jobs, or a training process that
// goes on after its FanStore job) runs one job: an Instance loads a small
// dataset, reads it warm, and four writer threads store 4 KiB outputs
// through FanStoreFs. The Instance is then destroyed and the main thread
// builds a fresh working set of `next` MiB (the next job's, or the
// process's own aggregation). glibc keeps freed pages in the arena of
// the thread that allocated them, so without a trim the job's written
// files stay resident and the next working set lands on top of them.
// Reported, from /proc/self/status:
//
//   job_mib         RSS at the end of the job, Instance alive
//   after_mib       RSS once the Instance is destroyed
//   returned_share  (job - after) / (job - base): the share of the job's
//                   growth handed back to the OS
//   peak_mib        VmHWM once the next working set is in place
//
//   bench_teardown [--outputs N] [--next MiB]
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/instance.hpp"
#include "mpi/comm.hpp"

using namespace fanstore;

namespace {

/// VmRSS / VmHWM in MiB from /proc/self/status (0 where absent).
double status_mib(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

Bytes pseudo_random(std::size_t n, std::uint64_t seed) {
  Bytes out(n);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int outputs_per_writer = 8000;
  std::size_t next_mib = 128;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--outputs") == 0) outputs_per_writer = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--next") == 0) next_mib = std::strtoul(argv[i + 1], nullptr, 10);
  }
  constexpr int kWriters = 4;
  constexpr std::size_t kOutputBytes = 4096;

  std::vector<std::pair<std::string, Bytes>> files;
  for (int i = 0; i < 256; ++i) {
    files.emplace_back("ds/f" + std::to_string(i), pseudo_random(32 << 10, i));
  }
  const Bytes partition = bench::make_partition(files, "lz4");
  files.clear();

  const double base = status_mib("VmRSS");
  double job = 0, after = 0;
  int failures = 0;
  {
    mpi::World world(1);
    auto inst = std::make_unique<core::Instance>(world.comm(0), core::Instance::Options{});
    inst->load_partition_blob(as_view(partition), 0);
    inst->exchange_metadata();
    for (int i = 0; i < 256; ++i) {
      if (!posixfs::read_file(inst->fs(), "ds/f" + std::to_string(i))) ++failures;
    }
    std::vector<std::thread> writers;
    std::vector<int> writer_failures(kWriters, 0);
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        for (int k = 0; k < outputs_per_writer; ++k) {
          const Bytes out = pseudo_random(kOutputBytes, (t + 1) * 1000003ull + k);
          const std::string path =
              "out/w" + std::to_string(t) + "/" + std::to_string(k) + ".bin";
          if (posixfs::write_file(inst->fs(), path, as_view(out)) != 0) {
            ++writer_failures[t];
          }
        }
      });
    }
    for (auto& w : writers) w.join();
    for (const int f : writer_failures) failures += f;
    job = status_mib("VmRSS");
    inst.reset();
    after = status_mib("VmRSS");
  }

  // The next working set, touched page by page, on the main thread.
  std::vector<Bytes> next;
  for (std::size_t i = 0; i < next_mib * 16; ++i) next.emplace_back(64 << 10, 2);
  const double peak = status_mib("VmHWM");
  const double growth = job - base;
  const double returned = growth > 0 ? (job - after) / growth : 0;

  bench::section("Memory kept after an Instance that stored written files");
  std::printf("%d writers x %d outputs of %zu B, next %zu MiB\n\n", kWriters,
              outputs_per_writer, kOutputBytes, next_mib);
  bench::Table table({"base MiB", "job MiB", "after MiB", "returned share", "peak MiB"});
  table.row({bench::fmt("%.1f", base), bench::fmt("%.1f", job), bench::fmt("%.1f", after),
             bench::fmt("%.2f", returned), bench::fmt("%.1f", peak)});
  table.print();
  std::printf("{\"job_mib\": %.1f, \"after_mib\": %.1f, \"returned_share\": %.3f, "
              "\"peak_mib\": %.1f, \"failures\": %d}\n",
              job, after, returned, peak, failures);
  return failures == 0 ? 0 : 1;
}
