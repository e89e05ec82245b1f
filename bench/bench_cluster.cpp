// Sharded-metadata benchmark (DESIGN.md §13): full replication (rf = ranks,
// every rank owns every shard) vs the consistent-hash-sharded namespace
// (rf = 2), both through the same push exchange, at 8 and 64 in-process
// ranks (real threads, real mailboxes) and at 512 ranks on the virtual
// clock (modeled analytically from the measured per-entry sizes, recorded
// with "modeled": true like the simnet-backed benches).
//
// Per rank-count cell, each mode reports:
//   build_ms             wall time of exchange_metadata()
//   bytes_per_rank       metadata bytes pushed per rank during the build
//   lookup_p99_us        p99 of a post-build ClusterNode::resolve() from
//                        rank 0 (full: a local store hit; sharded: a mix of
//                        local shard hits and meta RPCs to shard owners)
//   lookup_rpc_share     share of rank 0's resolves that went to the wire
//
// Acceptance, enforced on every host: the sharded exchange moves < 1/4 of
// the full-replication per-rank bytes at 64 ranks (rf=2 vs 64-way
// replication), full-replication lookups send 0 RPCs (both protocol
// properties), and the sharded build takes no longer than the full one at
// 64 ranks (wall clock; on 4 hardware threads the full build applies
// ~30x the entries, so the gate holds with a wide margin). Emits
// BENCH_cluster.json with the common bench header; tools/ci.sh runs
// `--quick`.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "cluster/node.hpp"
#include "core/instance.hpp"
#include "simnet/models.hpp"
#include "util/timer.hpp"

using namespace fanstore;

namespace {

struct Cell {
  double build_ms = 0;
  double bytes_per_rank = 0;
  double lookup_p99_us = 0;
  double lookup_rpc_share = 0;
  bool modeled = false;
};

std::vector<std::string> namespace_paths(int ranks, int files_per_rank) {
  std::vector<std::string> paths;
  for (int r = 0; r < ranks; ++r) {
    for (int i = 0; i < files_per_rank; ++i) {
      paths.push_back("ds/r" + std::to_string(r) + "/f" + std::to_string(i));
    }
  }
  return paths;
}

double p99_us(std::vector<double>& lat) {
  if (lat.empty()) return 0;
  std::sort(lat.begin(), lat.end());
  return lat[lat.size() * 99 / 100];
}

// One real in-process world: build the metadata view with the push
// exchange, then rank 0 measures resolve latency over the whole namespace.
Cell run_real(int ranks, int files_per_rank, int rf, int lookups) {
  Cell cell;
  const auto paths = namespace_paths(ranks, files_per_rank);
  mpi::run_world(ranks, [&](mpi::Comm& comm) {
    core::Instance::Options opt;
    opt.cluster.replication_factor = rf;
    core::Instance inst(comm, std::move(opt));
    std::vector<std::pair<std::string, Bytes>> mine;
    for (int i = 0; i < files_per_rank; ++i) {
      mine.emplace_back(paths[static_cast<std::size_t>(
                            comm.rank() * files_per_rank + i)],
                        Bytes(16, 1));
    }
    const Bytes part = bench::make_partition(mine, "store");
    inst.load_partition_blob(as_view(part), static_cast<std::uint32_t>(comm.rank()));
    comm.barrier();
    WallTimer build;
    inst.exchange_metadata();
    comm.barrier();
    if (comm.rank() == 0) cell.build_ms = build.elapsed_sec() * 1e3;

    // Pushes are counted on the sender; the per-rank average inbound
    // equals the per-rank average outbound.
    const double pushed = static_cast<double>(
        inst.metrics().counter("cluster.push_bytes").value());
    const auto sums = comm.allreduce_sum({pushed});
    if (comm.rank() == 0) cell.bytes_per_rank = sums[0] / ranks;

    inst.start_daemon();
    comm.barrier();
    if (comm.rank() == 0) {
      std::vector<double> lat;
      lat.reserve(static_cast<std::size_t>(lookups));
      auto* node = inst.cluster_node();
      const obs::Counter& rpcs = inst.metrics().counter("cluster.lookups_remote");
      const std::uint64_t rpcs0 = rpcs.value();
      std::size_t misses = 0;
      for (int i = 0; i < lookups; ++i) {
        const std::string& p =
            paths[(static_cast<std::size_t>(i) * 7919) % paths.size()];
        WallTimer t;
        if (!node->resolve(p)) ++misses;
        lat.push_back(t.elapsed_us());
      }
      cell.lookup_rpc_share = static_cast<double>(rpcs.value() - rpcs0) / lookups;
      if (misses > 0) {
        std::fprintf(stderr, "bench_cluster: %zu lookup misses at %d ranks\n",
                     misses, ranks);
      }
      cell.lookup_p99_us = p99_us(lat);
    }
    comm.barrier();
    inst.stop();
  });
  return cell;
}

// 512-rank cells on the virtual clock: charge the omnipath model with the
// per-entry wire sizes measured in the real runs. Full replication pushes
// each rank's metadata to the N-1 others; sharded pushes each entry to its
// rf shard owners (nshards scaled to 4x ranks so every rank owns shards).
Cell model_cell(int ranks, int files_per_rank, int rf, double entry_bytes,
                double apply_us_per_entry, double local_lookup_us) {
  const simnet::NetworkModel net = simnet::omnipath();
  const double bw = net.effective_bandwidth(ranks);
  const double local_bytes = files_per_rank * entry_bytes;
  Cell cell;
  cell.modeled = true;
  if (rf >= ranks) {
    // N-1 pushes of one rank's entries, then every inbound entry is
    // applied to the local map at the measured CPU cost.
    cell.bytes_per_rank = (ranks - 1) * local_bytes;
    const double entries_in = (ranks - 1.0) * files_per_rank;
    cell.build_ms = ((ranks - 1) * net.latency_s + cell.bytes_per_rank / bw +
                     entries_in * apply_us_per_entry * 1e-6) *
                    1e3;
    cell.lookup_p99_us = local_lookup_us;  // always a local store hit
  } else {
    // Each rank ships its entries to the rf owners of each path's shard
    // and receives its rf/N slice of the global namespace in return.
    cell.bytes_per_rank = rf * local_bytes;
    const double entries_in = static_cast<double>(rf) * files_per_rank;
    cell.build_ms = (2 * net.latency_s + cell.bytes_per_rank / bw +
                     entries_in * apply_us_per_entry * 1e-6) *
                    1e3;
    // p99 lookup is remote (only rf/N of shards are local): one meta RPC.
    cell.lookup_p99_us =
        (2 * net.latency_s + entry_bytes / bw) * 1e6 + local_lookup_us;
    cell.lookup_rpc_share = 1.0 - static_cast<double>(rf) / ranks;
  }
  return cell;
}

std::string json_cell(const Cell& c) {
  return "{\"build_ms\": " + bench::fmt("%.3f", c.build_ms) +
         ", \"bytes_per_rank\": " + bench::fmt("%.0f", c.bytes_per_rank) +
         ", \"lookup_p99_us\": " + bench::fmt("%.2f", c.lookup_p99_us) +
         ", \"lookup_rpc_share\": " + bench::fmt("%.3f", c.lookup_rpc_share) +
         ", \"modeled\": " + (c.modeled ? "true" : "false") + "}";
}

std::string json_cells(const std::vector<Cell>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_cell(v[i]);
  }
  return s + "]";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_cluster.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }
  const int files_per_rank = quick ? 50 : 200;
  const int lookups = quick ? 400 : 2000;
  constexpr int kRf = 2;

  bench::section("Sharded metadata vs full replication (DESIGN.md §13)");
  const std::vector<int> real_ranks = {8, 64};
  std::vector<int> all_ranks = real_ranks;
  all_ranks.push_back(512);

  std::vector<Cell> full, sharded;
  for (const int n : real_ranks) {
    full.push_back(run_real(n, files_per_rank, /*rf=*/n, lookups));
    sharded.push_back(run_real(n, files_per_rank, kRf, lookups));
  }
  // Per-entry wire size from the measured 64-rank full exchange; the
  // modeled 512-rank cells extrapolate from it.
  const double entries_in_64 = (real_ranks.back() - 1.0) * files_per_rank;
  const double entry_bytes = full.back().bytes_per_rank / entries_in_64;
  // Per-entry apply cost (wire decode + map insert + dir synthesis) from
  // the measured 64-rank full build, which that phase dominates.
  const double apply_us = full.back().build_ms * 1e3 / entries_in_64;
  full.push_back(model_cell(512, files_per_rank, 512, entry_bytes, apply_us,
                            full.back().lookup_p99_us));
  sharded.push_back(model_cell(512, files_per_rank, kRf, entry_bytes, apply_us,
                               full.back().lookup_p99_us));

  bench::Table table({"ranks", "full build ms", "full B/rank", "full p99us",
                      "full rpc share", "sharded build ms", "sharded B/rank",
                      "sharded p99us", "sharded rpc share", "modeled"});
  for (std::size_t i = 0; i < all_ranks.size(); ++i) {
    table.row({std::to_string(all_ranks[i]),
               bench::fmt("%.2f", full[i].build_ms),
               bench::fmt("%.0f", full[i].bytes_per_rank),
               bench::fmt("%.2f", full[i].lookup_p99_us),
               bench::fmt("%.3f", full[i].lookup_rpc_share),
               bench::fmt("%.2f", sharded[i].build_ms),
               bench::fmt("%.0f", sharded[i].bytes_per_rank),
               bench::fmt("%.2f", sharded[i].lookup_p99_us),
               bench::fmt("%.3f", sharded[i].lookup_rpc_share),
               full[i].modeled ? "yes" : "no"});
  }
  table.print();

  // Acceptance, on every host: bytes (rf copies vs N copies), zero
  // full-replication lookup RPCs, and the 64-rank build wall time.
  bool ok = true;
  const std::size_t i64 = 1;  // index of the 64-rank cell
  if (sharded[i64].bytes_per_rank >= full[i64].bytes_per_rank / 4) {
    std::fprintf(stderr,
                 "bench_cluster: sharded moved %.0f B/rank, expected < 1/4 "
                 "of full replication's %.0f at 64 ranks\n",
                 sharded[i64].bytes_per_rank, full[i64].bytes_per_rank);
    ok = false;
  }
  for (std::size_t i = 0; i < real_ranks.size(); ++i) {
    if (full[i].lookup_rpc_share != 0) {
      std::fprintf(stderr,
                   "bench_cluster: full-replication lookups sent RPCs "
                   "(share %.3f) at %d ranks, expected 0\n",
                   full[i].lookup_rpc_share, real_ranks[i]);
      ok = false;
    }
  }
  if (sharded[i64].build_ms > full[i64].build_ms) {
    std::fprintf(stderr,
                 "bench_cluster: sharded build %.2f ms slower than full "
                 "replication %.2f ms at 64 ranks\n",
                 sharded[i64].build_ms, full[i64].build_ms);
    ok = false;
  }

  const std::string header = bench::json_header("cluster", quick, "wall");
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_cluster: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::string ranks_json = "[";
  for (std::size_t i = 0; i < all_ranks.size(); ++i) {
    if (i > 0) ranks_json += ", ";
    ranks_json += std::to_string(all_ranks[i]);
  }
  ranks_json += "]";
  std::fprintf(out,
               "{\n"
               "%s,\n"
               "  \"files_per_rank\": %d,\n"
               "  \"sharded_replication_factor\": %d,\n"
               "  \"ranks\": %s,\n"
               "  \"full_replication\": %s,\n"
               "  \"sharded\": %s\n"
               "}\n",
               header.c_str(), files_per_rank, kRf, ranks_json.c_str(),
               json_cells(full).c_str(), json_cells(sharded).c_str());
  std::fclose(out);
  std::printf("\nwrote %s\n", json_path.c_str());
  if (!ok) {
    std::fprintf(stderr, "bench_cluster: acceptance checks FAILED\n");
    return 1;
  }
  std::printf("acceptance checks: OK\n");
  return 0;
}
