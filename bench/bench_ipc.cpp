// Socket front-door benchmark (DESIGN.md §11): the daemon's event-driven
// ipc::Server (epoll shards + blocker pool, default thread counts) over
// UDS at 1/8/64/256 concurrent clients. It serves the product path: a
// warm one-rank FanStoreFs holding one 16 KiB lz4 file, so every get is a
// loop-thread cache hit. Each client runs a fixed number of kGet round
// trips. Reported per cell, from the clients: requests/s and p99 round
// trip; from a metrics registry made for the cell, the server's own view
// of where that time went: `ipc.serve_us` p99 (answering one request on
// the loop) and `ipc.loop_dispatch_us` p50/p99 (one whole loop round,
// every ready connection of a shard), plus the loop-served share.
//
// Gate (runs on every host): every request of every cell is answered on
// the loop thread (share 1.0) and no client sees an error. Throughput and
// latency are reported, not gated: with fewer cores than client threads
// they measure the scheduler as much as the server.
//
// Emits BENCH_ipc.json. tools/ci.sh runs `--quick` as a smoke test.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/instance.hpp"
#include "ipc/server.hpp"
#include "ipc/transport.hpp"
#include "ipc/uds_client.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

using namespace fanstore;

namespace {

std::string unique_socket_path(const char* tag) {
  return "/tmp/fanstore_bench_" + std::to_string(getpid()) + "_" + tag +
         ".sock";
}

struct CellResult {
  int clients = 0;
  int errors = 0;
  double req_per_s = 0;
  double p99_us = 0;
  double loop_share = 0;
  double serve_p99_us = 0;
  double dispatch_p50_us = 0;
  double dispatch_p99_us = 0;
};

// `spec` serves "ds/payload"; every client does `per_client` round trips.
CellResult run_cell(const std::string& spec, int clients, int per_client,
                    const Bytes& expect) {
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(clients));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ipc::ClientOptions copt;
      // Absorbs refused connects where net.core.somaxconn is below the
      // client count.
      copt.retry.max_attempts = 5;
      copt.retry.base_delay_ms = 1;
      ipc::UdsClientVfs client(spec, copt);
      lat[static_cast<std::size_t>(c)].reserve(
          static_cast<std::size_t>(per_client));
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < per_client; ++i) {
        WallTimer t;
        const auto got = posixfs::read_file(client, "ds/payload");
        if (!got.has_value() || *got != expect) {
          errors.fetch_add(1);
          return;
        }
        lat[static_cast<std::size_t>(c)].push_back(t.elapsed_us());
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  WallTimer wall;
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double elapsed = wall.elapsed_sec();

  CellResult r;
  r.clients = clients;
  r.errors = errors.load();
  if (r.errors > 0) {
    std::fprintf(stderr, "bench_ipc: %d client errors at %d clients\n",
                 r.errors, clients);
  }
  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  r.req_per_s = static_cast<double>(all.size()) / elapsed;
  r.p99_us = all.empty() ? 0 : all[all.size() * 99 / 100];
  return r;
}

std::string json_cells(const std::vector<CellResult>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    const CellResult& c = v[i];
    if (i > 0) s += ",";
    s += "\n    {\"clients\": " + std::to_string(c.clients) +
         ", \"req_per_s\": " + bench::fmt("%.0f", c.req_per_s) +
         ", \"p99_us\": " + bench::fmt("%.1f", c.p99_us) +
         ", \"errors\": " + std::to_string(c.errors) +
         ", \"loop_served_share\": " + bench::fmt("%.4f", c.loop_share) +
         ", \"ipc.serve_us.p99\": " + bench::fmt("%.1f", c.serve_p99_us) +
         ", \"ipc.loop_dispatch_us.p50\": " + bench::fmt("%.1f", c.dispatch_p50_us) +
         ", \"ipc.loop_dispatch_us.p99\": " + bench::fmt("%.1f", c.dispatch_p99_us) +
         "}";
  }
  return s + "\n  ]";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_ipc.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }
  const std::vector<int> client_counts =
      quick ? std::vector<int>{1, 8, 64} : std::vector<int>{1, 8, 64, 256};
  const int per_client = quick ? 40 : 200;

  Bytes payload(16 << 10);
  std::uint64_t x = 88172645463325252ull;
  for (auto& b : payload) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  mpi::World world(1);
  core::Instance inst(world.comm(0), {});
  inst.load_partition_blob(
      as_view(bench::make_partition({{"ds/payload", payload}}, "lz4")), 0);
  inst.exchange_metadata();
  if (posixfs::read_file(inst.fs(), "ds/payload") != payload) {  // warm
    std::fprintf(stderr, "bench_ipc: warm read mismatch\n");
    return 1;
  }

  std::vector<CellResult> cells;
  for (const int clients : client_counts) {
    // A registry per cell, so each cell's histograms hold only its own
    // requests and loop rounds.
    obs::MetricsRegistry metrics;
    ipc::ServerOptions opt;
    opt.metrics = &metrics;
    ipc::Server server({ipc::Endpoint::uds(unique_socket_path("event"))},
                       inst.fs(), opt);
    server.start();
    CellResult r = run_cell(server.endpoints()[0].to_string(), clients,
                            per_client, payload);
    server.stop();
    const std::uint64_t requests = metrics.counter("ipc.requests").value();
    r.loop_share = requests > 0
                       ? static_cast<double>(metrics.counter("ipc.loop_served").value()) /
                             static_cast<double>(requests)
                       : 0;
    r.serve_p99_us = metrics.histogram("ipc.serve_us").quantile(99);
    r.dispatch_p50_us = metrics.histogram("ipc.loop_dispatch_us").quantile(50);
    r.dispatch_p99_us = metrics.histogram("ipc.loop_dispatch_us").quantile(99);
    cells.push_back(r);
  }

  bench::Table table({"clients", "req/s", "p99us", "loop share",
                      "serve p99us", "round p50us", "round p99us"});
  bool ok = true;
  for (const CellResult& c : cells) {
    table.row({std::to_string(c.clients), bench::fmt_int(c.req_per_s),
               bench::fmt("%.1f", c.p99_us), bench::fmt("%.4f", c.loop_share),
               bench::fmt("%.1f", c.serve_p99_us),
               bench::fmt("%.1f", c.dispatch_p50_us),
               bench::fmt("%.1f", c.dispatch_p99_us)});
    if (c.errors > 0 || c.loop_share != 1.0) {
      std::fprintf(stderr,
                   "bench_ipc: %d clients: %d errors, loop-served share %.4f "
                   "(want 0 and 1.0)\n",
                   c.clients, c.errors, c.loop_share);
      ok = false;
    }
  }
  table.print();

  const std::string header = bench::json_header("ipc", quick, "wall");
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_ipc: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "%s,\n"
               "  \"payload_bytes\": %d,\n"
               "  \"requests_per_client\": %d,\n"
               "  \"cells\": %s,\n"
               "  \"gate\": {\"loop_served_share\": 1.0, \"client_errors\": 0, "
               "\"passed\": %s}\n"
               "}\n",
               header.c_str(), 16 << 10,
               per_client, json_cells(cells).c_str(), ok ? "true" : "false");
  std::fclose(out);
  std::printf("\nwrote %s\n", json_path.c_str());
  if (!ok) {
    std::fprintf(stderr, "bench_ipc: acceptance checks FAILED\n");
    return 1;
  }
  std::printf("acceptance checks: OK\n");
  return 0;
}
