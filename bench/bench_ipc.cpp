// Socket front-door benchmark (DESIGN.md §11): the event-driven
// ipc::Server (epoll shards + blocker pool) vs the thread-per-connection
// UdsServer baseline, over UDS, at 1/8/64/256 concurrent clients. Both
// serve the product path: a warm one-rank FanStoreFs holding one 16 KiB
// lz4 file, so every event-server get is a loop-thread cache hit. Each
// client runs a fixed number of kGet round trips; reported per cell:
// requests/s and p99 round-trip latency, plus the share of event-server
// requests answered on the loop thread.
//
// Acceptance (ISSUE 8): the event server must reach >= 2x the baseline's
// requests/s at 64+ clients — enforced only when the host has >= 8
// hardware threads (with fewer cores the fixed shard/blocker threads
// cannot run in parallel with 64 client threads, and the comparison
// measures the scheduler, not the server). The JSON always records
// hardware_concurrency so small CI boxes still produce honest artifacts.
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
#include "ipc/uds_server.hpp"
#include "util/timer.hpp"

using namespace fanstore;

namespace {

std::string unique_socket_path(const char* tag) {
  return "/tmp/fanstore_bench_" + std::to_string(getpid()) + "_" + tag +
         ".sock";
}

struct CellResult {
  double req_per_s = 0;
  double p99_us = 0;
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
      copt.retry.max_attempts = 5;  // absorb transient connect backlog overflow
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
  if (errors.load() > 0) {
    std::fprintf(stderr, "bench_ipc: %d client errors at %d clients\n",
                 errors.load(), clients);
    return r;
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
    if (i > 0) s += ", ";
    s += "{\"req_per_s\": " + bench::fmt("%.0f", v[i].req_per_s) +
         ", \"p99_us\": " + bench::fmt("%.1f", v[i].p99_us) + "}";
  }
  return s + "]";
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
  const unsigned hw = std::thread::hardware_concurrency();
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
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name("lz4");
  format::PartitionWriter w;
  w.add(format::make_record("ds/payload", *codec, reg.id_of(*codec),
                            as_view(payload)));
  inst.load_partition_blob(as_view(w.serialize()), 0);
  inst.exchange_metadata();
  if (posixfs::read_file(inst.fs(), "ds/payload") != payload) {  // warm
    std::fprintf(stderr, "bench_ipc: warm read mismatch\n");
    return 1;
  }
  posixfs::Vfs& fs = inst.fs();
  obs::Counter& requests = inst.metrics().counter("ipc.requests");
  obs::Counter& loop_served = inst.metrics().counter("ipc.loop_served");
  std::uint64_t event_requests = 0, event_loop_served = 0;

  std::vector<CellResult> baseline, event;
  for (const int clients : client_counts) {
    // Thread-per-connection baseline.
    {
      ipc::UdsServer server(unique_socket_path("base"), fs,
                            /*backlog=*/std::max(64, clients));
      server.start();
      baseline.push_back(
          run_cell(server.socket_path(), clients, per_client, payload));
      server.stop();
    }
    // Event-driven server: fixed threads regardless of client count.
    {
      ipc::ServerOptions opt;
      opt.backlog = std::max(64, clients);
      opt.metrics = &inst.metrics();
      ipc::Server server({ipc::Endpoint::uds(unique_socket_path("event"))},
                         fs, opt);
      server.start();
      const std::uint64_t r0 = requests.value(), l0 = loop_served.value();
      event.push_back(run_cell(server.endpoints()[0].to_string(), clients,
                               per_client, payload));
      server.stop();
      event_requests += requests.value() - r0;
      event_loop_served += loop_served.value() - l0;
    }
  }

  bench::Table table({"clients", "baseline req/s", "baseline p99us",
                      "event req/s", "event p99us", "speedup"});
  for (std::size_t i = 0; i < client_counts.size(); ++i) {
    const double speedup =
        baseline[i].req_per_s > 0 ? event[i].req_per_s / baseline[i].req_per_s
                                  : 0;
    table.row({std::to_string(client_counts[i]),
               bench::fmt_int(baseline[i].req_per_s),
               bench::fmt("%.1f", baseline[i].p99_us),
               bench::fmt_int(event[i].req_per_s),
               bench::fmt("%.1f", event[i].p99_us),
               bench::fmt("%.2f", speedup)});
  }
  table.print();
  const double loop_share =
      event_requests > 0 ? static_cast<double>(event_loop_served) /
                               static_cast<double>(event_requests)
                         : 0;
  std::printf("event server: %.4f of %llu requests answered on the loop thread\n",
              loop_share, static_cast<unsigned long long>(event_requests));

  // Acceptance: >= 2x req/s at 64+ clients, hardware permitting.
  const bool enforce = hw >= 8;
  bool ok = true;
  for (std::size_t i = 0; i < client_counts.size(); ++i) {
    if (client_counts[i] < 64) continue;
    if (baseline[i].req_per_s <= 0 || event[i].req_per_s <= 0) ok = false;
    if (enforce && event[i].req_per_s < 2.0 * baseline[i].req_per_s) {
      std::fprintf(stderr,
                   "bench_ipc: event server %.0f req/s < 2x baseline %.0f at "
                   "%d clients\n",
                   event[i].req_per_s, baseline[i].req_per_s,
                   client_counts[i]);
      ok = false;
    }
  }

  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_ipc: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::string counts = "[";
  for (std::size_t i = 0; i < client_counts.size(); ++i) {
    if (i > 0) counts += ", ";
    counts += std::to_string(client_counts[i]);
  }
  counts += "]";
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"ipc\",\n"
               "  \"quick\": %s,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"payload_bytes\": %d,\n"
               "  \"requests_per_client\": %d,\n"
               "  \"clients\": %s,\n"
               "  \"baseline_thread_per_conn\": %s,\n"
               "  \"event_driven\": %s,\n"
               "  \"event_loop_served_share\": %.4f,\n"
               "  \"speedup_enforced\": %s\n"
               "}\n",
               quick ? "true" : "false", hw, 16 << 10, per_client,
               counts.c_str(), json_cells(baseline).c_str(),
               json_cells(event).c_str(), loop_share,
               enforce ? "true" : "false");
  std::fclose(out);
  std::printf("\nwrote %s\n", json_path.c_str());
  if (!ok) {
    std::fprintf(stderr, "bench_ipc: acceptance checks FAILED\n");
    return 1;
  }
  std::printf("acceptance checks: OK\n");
  return 0;
}
