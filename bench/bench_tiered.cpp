// Tiered cache hierarchy vs a plain-RAM-only cache (DESIGN.md §12).
//
// Both configurations run the real multi-rank stack (ranks = threads,
// remote fetches through the daemon protocol, virtual-time device costs)
// over a chunked-lz4 dataset, locally shuffled so every rank re-reads the
// full file set each epoch:
//
//   plain-only   PlainCache with budget B. Once the reuse distance exceeds
//                B, every miss goes back over the interconnect to the
//                owner rank (network transfer + remote service time).
//   tiered       The same plain budget B, plus a compressed-RAM tier of B
//                and an SSD-spill tier big enough for the remainder.
//                Evictions demote instead of dropping, so after the first
//                epoch most misses resolve locally: decode a compressed
//                frame or re-read a crc-framed spill record — both far
//                cheaper than a remote fetch.
//
// Sweeps the RAM budget as a fraction of the dataset and emits
// BENCH_tiered.json — the recorded perf trajectory for the tiered stack.
// tools/ci.sh runs `--quick` twice as a smoke/non-regression gate: the
// tiered stack must never lose to plain-only at the paper's cache = 1/8
// dataset point, the tier accounting identity must hold exactly, and the
// second process must replay the first (the epoch times are virtual, so
// the gate holds on any host).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/instance.hpp"
#include "dlsim/datagen.hpp"
#include "dlsim/trainer.hpp"
#include "simnet/models.hpp"
#include "simnet/virtual_clock.hpp"

using namespace fanstore;

namespace {

struct Config {
  int nranks = 64;
  int files = 96;
  std::size_t file_bytes = 16 * 1024;
  int epochs = 3;
  std::size_t batch_per_rank = 4;
  double t_iter_s = 0.000005;  // I/O-bound: the cache hierarchy is exposed
  int io_parallelism = 4;
  std::size_t dataset_bytes() const {
    return static_cast<std::size_t>(files) * file_bytes;
  }
};

struct RunResult {
  double epoch_s = 0;  // steady-state, max across ranks (synchronized SGD)
  double items_per_s = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t plain_hits = 0;
  std::uint64_t comp_hits = 0;
  std::uint64_t spill_hits = 0;
  std::uint64_t peer_hits = 0;
  std::uint64_t cold_loads = 0;
  bool accounting_ok = true;
};

RunResult run_case(bool tiered, std::size_t plain_budget, const Config& cfg) {
  std::vector<RunResult> per(static_cast<std::size_t>(cfg.nranks));
  std::vector<double> total_s(static_cast<std::size_t>(cfg.nranks));
  mpi::run_world(cfg.nranks, [&](mpi::Comm& comm) {
    simnet::VirtualClock clock;
    core::Instance::Options opt;
    opt.fs.cost.enabled = true;
    opt.fs.cost.read_path = simnet::fanstore_read_path(simnet::cpu_cluster());
    opt.fs.cost.network = simnet::cpu_cluster().network;
    opt.fs.cost.charge_remote_service = true;
    opt.fs.clock = &clock;
    opt.fs.cache_bytes = plain_budget;
    if (tiered) {
      opt.fs.compressed_cache_bytes = plain_budget;
      opt.fs.spill_bytes = cfg.dataset_bytes() * 2;
      // A locally-shuffled scan has no refetch locality: a promoted entry
      // is always evicted from plain RAM again before its next access, so
      // reclaiming the lower-tier copy only buys a demotion rewrite.
      // Leave entries where they settle and serve tier hits as copies.
      opt.fs.promote_after_hits = 1 << 20;
    }
    core::Instance inst(comm, opt);

    std::vector<std::string> all_paths;
    std::vector<std::pair<std::string, Bytes>> mine;
    for (int i = 0; i < cfg.files; ++i) {
      std::string path = "ds/f" + std::to_string(i);
      all_paths.push_back(path);
      if (i % cfg.nranks == comm.rank()) {
        mine.emplace_back(std::move(path),
                          dlsim::generate_file_sized(
                              dlsim::DatasetKind::kEmTif,
                              static_cast<std::uint64_t>(i), cfg.file_bytes));
      }
    }
    inst.load_partition_blob(
        as_view(bench::make_partition(mine, "chunked-16k+lz4")),
        static_cast<std::uint32_t>(comm.rank()));
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    dlsim::TrainerOptions topt;
    topt.t_iter_s = cfg.t_iter_s;
    topt.batch_per_rank = cfg.batch_per_rank;
    topt.async_io = true;
    topt.io_parallelism = cfg.io_parallelism;
    topt.gradient_len = 16;
    topt.seed = 7;
    topt.io_clock = &clock;
    topt.comm = &comm;
    topt.metrics = &inst.metrics();

    // One unmeasured warmup epoch populates whatever hierarchy is
    // configured (for plain-only it warms nothing that survives), then the
    // measured epochs report steady-state epoch time — the paper's own
    // reporting convention, and the regime a training job lives in.
    topt.epochs = 1;
    (void)dlsim::run_training(inst.fs(), all_paths, topt);
    comm.barrier();
    topt.epochs = cfg.epochs;
    topt.seed = 11;
    const auto result = dlsim::run_training(inst.fs(), all_paths, topt);
    const auto snap = inst.metrics().snapshot();
    auto& slot = per[static_cast<std::size_t>(comm.rank())];
    slot.items_per_s = result.items_per_s;
    slot.hits = snap.counter("cache.hits");
    slot.misses = snap.counter("cache.misses");
    slot.plain_hits = snap.counter("tier.plain.hits");
    slot.comp_hits = snap.counter("tier.compressed.hits");
    slot.spill_hits = snap.counter("tier.spill.hits");
    slot.peer_hits = snap.counter("tier.peer.hits");
    slot.cold_loads = snap.counter("tier.cold.loads");
    total_s[static_cast<std::size_t>(comm.rank())] = result.total_s;

    comm.barrier();
    inst.stop();
  });
  RunResult agg;
  for (const auto& r : per) {
    agg.items_per_s += r.items_per_s;
    agg.hits += r.hits;
    agg.misses += r.misses;
    agg.plain_hits += r.plain_hits;
    agg.comp_hits += r.comp_hits;
    agg.spill_hits += r.spill_hits;
    agg.peer_hits += r.peer_hits;
    agg.cold_loads += r.cold_loads;
  }
  agg.epoch_s = *std::max_element(total_s.begin(), total_s.end()) /
                static_cast<double>(cfg.epochs);
  // Cross-check the tier bookkeeping against the cache's own counters
  // (DESIGN.md §7 accounting identities): every plain-tier miss resolved in
  // exactly one lower tier, and the plain-hit mirror matches.
  if (tiered) {
    agg.accounting_ok =
        agg.misses == agg.comp_hits + agg.spill_hits + agg.peer_hits +
                          agg.cold_loads &&
        agg.plain_hits == agg.hits;
  }
  return agg;
}

std::string json_array(const std::vector<double>& v, const char* f = "%.4f") {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ", ";
    out += bench::fmt(f, v[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_tiered.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }

  Config cfg;
  cfg.nranks = quick ? 16 : 64;
  cfg.files = quick ? 48 : 96;
  cfg.epochs = quick ? 2 : 3;
  // RAM budget as a fraction of the dataset; 1/8 is the paper's pressure
  // point and the gated one.
  const std::vector<double> fractions =
      quick ? std::vector<double>{0.125, 0.5}
            : std::vector<double>{0.0625, 0.125, 0.25, 0.5};

  bench::section("Tiered cache hierarchy vs plain-RAM-only (virtual time)");
  std::printf("%d ranks, %d files x %zu B chunked-lz4 (%.1f KB dataset), "
              "%d epochs, batch %zu\n\n",
              cfg.nranks, cfg.files, cfg.file_bytes,
              static_cast<double>(cfg.dataset_bytes()) / 1e3, cfg.epochs,
              cfg.batch_per_rank);

  std::vector<double> plain_epoch_s;
  std::vector<double> tiered_epoch_s;
  std::vector<double> speedups;
  RunResult gate_run;  // the tiered run at the 1/8 pressure point
  bool accounting_ok = true;
  bench::Table table({"RAM budget", "plain epoch s", "tiered epoch s",
                      "speedup", "comp hits", "spill hits", "cold loads"});
  for (const double frac : fractions) {
    const auto budget =
        static_cast<std::size_t>(static_cast<double>(cfg.dataset_bytes()) * frac);
    const RunResult plain = run_case(/*tiered=*/false, budget, cfg);
    const RunResult tiered = run_case(/*tiered=*/true, budget, cfg);
    if (frac == 0.125) gate_run = tiered;
    accounting_ok = accounting_ok && tiered.accounting_ok;
    plain_epoch_s.push_back(plain.epoch_s);
    tiered_epoch_s.push_back(tiered.epoch_s);
    speedups.push_back(plain.epoch_s / tiered.epoch_s);
    table.row({bench::fmt("%.3f", frac) + " x dataset",
               bench::fmt("%.6f", plain.epoch_s),
               bench::fmt("%.6f", tiered.epoch_s),
               bench::fmt("%.2fx", speedups.back()),
               std::to_string(tiered.comp_hits),
               std::to_string(tiered.spill_hits),
               std::to_string(tiered.cold_loads)});
  }
  table.print();
  std::printf("\naccounting identity (misses == comp+spill+peer+cold): %s\n",
              accounting_ok ? "ok" : "VIOLATED");

  const std::string header = bench::json_header("tiered", quick, "virtual");
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_tiered: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "%s,\n"
               "  \"ranks\": %d,\n"
               "  \"files\": %d,\n"
               "  \"file_bytes\": %zu,\n"
               "  \"dataset_bytes\": %zu,\n"
               "  \"epochs\": %d,\n"
               "  \"budget_fractions\": %s,\n"
               "  \"plain_epoch_s\": %s,\n"
               "  \"tiered_epoch_s\": %s,\n"
               "  \"speedup\": %s,\n"
               "  \"gate_point\": {\n"
               "    \"fraction\": 0.125,\n"
               "    \"plain_hits\": %llu,\n"
               "    \"compressed_hits\": %llu,\n"
               "    \"spill_hits\": %llu,\n"
               "    \"peer_hits\": %llu,\n"
               "    \"cold_loads\": %llu,\n"
               "    \"misses\": %llu\n"
               "  },\n"
               "  \"accounting_ok\": %s\n"
               "}\n",
               header.c_str(), cfg.nranks, cfg.files, cfg.file_bytes,
               cfg.dataset_bytes(), cfg.epochs,
               json_array(std::vector<double>(fractions)).c_str(),
               // Virtual-clock seconds to the nanosecond, so the file's
               // own epoch times reproduce its speedup column.
               json_array(plain_epoch_s, "%.9f").c_str(),
               json_array(tiered_epoch_s, "%.9f").c_str(),
               json_array(speedups, "%.2f").c_str(),
               static_cast<unsigned long long>(gate_run.plain_hits),
               static_cast<unsigned long long>(gate_run.comp_hits),
               static_cast<unsigned long long>(gate_run.spill_hits),
               static_cast<unsigned long long>(gate_run.peer_hits),
               static_cast<unsigned long long>(gate_run.cold_loads),
               static_cast<unsigned long long>(gate_run.misses),
               accounting_ok ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());

  // Regression gates, both enforced on every host: the accounting identity
  // is exact, and the epoch times come from the virtual clock.
  int rc = 0;
  if (!accounting_ok) {
    std::fprintf(stderr, "REGRESSION: tier accounting identity violated\n");
    rc = 1;
  }
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    if (fractions[i] == 0.125 && tiered_epoch_s[i] > plain_epoch_s[i]) {
      std::fprintf(stderr,
                   "REGRESSION: tiered epoch %.9fs slower than plain-only "
                   "%.9fs at cache = 1/8 dataset\n",
                   tiered_epoch_s[i], plain_epoch_s[i]);
      rc = 1;
    }
  }
  return rc;
}
