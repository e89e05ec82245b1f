// Ablation: function-interception overhead (google-benchmark).
//
// Table III attributes FanStore's near-raw-device speed to user-space
// interception bypassing kernel paths. Here: the cost of the dispatch
// layer itself (Interceptor route + fd indirection) and of the full
// FanStore cached read path, per open/read/close cycle.
#include <benchmark/benchmark.h>

#include "core/instance.hpp"
#include "posixfs/interceptor.hpp"
#include "posixfs/mem_vfs.hpp"

using namespace fanstore;

namespace {

constexpr std::size_t kFileBytes = 4096;

void read_cycle(posixfs::Vfs& fs, const char* path, Bytes& buf) {
  const int fd = fs.open(path, posixfs::OpenMode::kRead);
  while (fs.read(fd, MutByteView{buf.data(), buf.size()}) > 0) {
  }
  fs.close(fd);
}

void BM_MemVfsDirect(benchmark::State& state) {
  posixfs::MemVfs fs;
  posixfs::write_file(fs, "f", as_view(Bytes(kFileBytes, 7)));
  Bytes buf(kFileBytes);
  for (auto _ : state) read_cycle(fs, "f", buf);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * kFileBytes));
}
BENCHMARK(BM_MemVfsDirect);

void BM_ThroughInterceptor(benchmark::State& state) {
  posixfs::MemVfs fs;
  posixfs::write_file(fs, "f", as_view(Bytes(kFileBytes, 7)));
  posixfs::Interceptor shim;
  shim.mount("mnt", &fs);
  Bytes buf(kFileBytes);
  for (auto _ : state) read_cycle(shim, "mnt/f", buf);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * kFileBytes));
}
BENCHMARK(BM_ThroughInterceptor);

void BM_FanStoreCachedRead(benchmark::State& state) {
  mpi::World world(1);
  core::Instance inst(world.comm(0), {});
  core::FanStoreFs& fs = inst.fs();
  inst.backend().put("f", core::Blob{0, Bytes(kFileBytes, 7)});
  format::FileStat st;
  st.size = kFileBytes;
  inst.metadata().insert("f", st);
  Bytes buf(kFileBytes);
  read_cycle(fs, "f", buf);  // populate the cache
  for (auto _ : state) read_cycle(fs, "f", buf);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * kFileBytes));
}
BENCHMARK(BM_FanStoreCachedRead);

void BM_MetadataStat(benchmark::State& state) {
  mpi::World world(1);
  core::Instance inst(world.comm(0), {});
  core::FanStoreFs& fs = inst.fs();
  for (int i = 0; i < 10000; ++i) {
    format::FileStat st;
    st.size = 1;
    inst.metadata().insert("d" + std::to_string(i % 100) + "/f" + std::to_string(i), st);
  }
  format::FileStat out;
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fs.stat("d" + std::to_string(i % 100) + "/f" + std::to_string(i % 10000), &out));
    ++i;
  }
}
BENCHMARK(BM_MetadataStat);

}  // namespace

BENCHMARK_MAIN();
