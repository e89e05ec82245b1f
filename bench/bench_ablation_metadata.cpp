// Ablation: metadata placement. FanStore replicates all metadata to every
// node in one startup exchange, each rank pushing its entries to every
// other (then every stat() is a local hash lookup); the alternative is a
// central metadata server queried over the interconnect. This bench
// measures the real local-lookup cost, the real exchange cost at
// increasing rank counts, and models the central-server per-op cost for
// comparison — including the §II-B1 enumeration storm.
#include "bench/bench_util.hpp"
#include "cluster/metadata_store.hpp"
#include "core/instance.hpp"
#include "simnet/models.hpp"
#include "util/timer.hpp"

using namespace fanstore;

namespace {

double measure_local_lookup_ns(std::size_t nfiles) {
  cluster::MetadataStore meta;
  for (std::size_t i = 0; i < nfiles; ++i) {
    format::FileStat st;
    st.size = i;
    meta.insert("dir" + std::to_string(i % 100) + "/file" + std::to_string(i), st);
  }
  WallTimer t;
  std::size_t found = 0;
  constexpr std::size_t kLookups = 200000;
  for (std::size_t i = 0; i < kLookups; ++i) {
    found += meta.lookup("dir" + std::to_string(i % 100) + "/file" +
                         std::to_string(i % nfiles))
                 .has_value();
  }
  const double ns = t.elapsed_sec() * 1e9 / kLookups;
  return found > 0 ? ns : ns;
}

double measure_exchange_s(int ranks, std::size_t files_per_rank) {
  double result = 0;
  mpi::run_world(ranks, [&](mpi::Comm& comm) {
    core::Instance inst(comm, {});
    std::vector<std::pair<std::string, Bytes>> mine;
    for (std::size_t i = 0; i < files_per_rank; ++i) {
      mine.emplace_back("r" + std::to_string(comm.rank()) + "/f" + std::to_string(i),
                        Bytes(16, 1));
    }
    inst.load_partition_blob(as_view(bench::make_partition(mine, "store")),
                             static_cast<std::uint32_t>(comm.rank()));
    comm.barrier();
    WallTimer t;
    inst.exchange_metadata();
    comm.barrier();
    if (comm.rank() == 0) result = t.elapsed_sec();
  });
  return result;
}

}  // namespace

int main() {
  bench::section("Ablation: metadata placement (replicated-local vs central server)");

  const double local_ns = measure_local_lookup_ns(100000);
  const simnet::NetworkModel net = simnet::omnipath();
  const simnet::MetadataServerModel mds;

  bench::Table table({"nodes", "local stat()", "central stat() (model)",
                      "central/local"});
  for (const int n : {1, 4, 16, 64, 512}) {
    // Central server: one round trip + queueing at the aggregate stat rate
    // of the steady training phase (4 I/O threads/node x ~500 stats/s).
    const double rate = n * 4 * 500.0;
    const double rho = rate * mds.service_time_s;
    const double central = 2 * net.latency_s + mds.response_time(rate);
    table.row({std::to_string(n), bench::fmt("%.0f ns", local_ns),
               rho >= 0.98 ? std::string("saturated (queue diverges)")
                           : bench::fmt("%.1f us", central * 1e6),
               rho >= 0.98 ? std::string("--")
                           : bench::fmt("%.0fx", central / (local_ns * 1e-9))});
  }
  table.print();

  bench::section("One-time cost of building the replicated view (real full-replication exchange)");
  bench::Table ag({"ranks", "files/rank", "exchange wall time"});
  for (const int n : {2, 8, 32}) {
    ag.row({std::to_string(n), "500",
            bench::fmt("%.1f ms", measure_exchange_s(n, 500) * 1000)});
  }
  ag.print();
  std::printf(
      "\nClaim: replicating metadata once (milliseconds) converts every later\n"
      "stat()/readdir() into a ~sub-microsecond local lookup, removing the\n"
      "shared metadata server from the picture entirely (§IV-C1).\n");
  return 0;
}
