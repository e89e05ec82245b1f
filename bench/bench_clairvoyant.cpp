// Clairvoyant planner vs the reactive prefetcher (DESIGN.md §10).
//
// Both paths run the real multi-rank stack (ranks = threads, remote
// fetches through the daemon protocol, virtual-time device costs) over an
// lzma dataset with a cache budget of half the dataset, locally shuffled
// so every rank re-reads the full file set each epoch:
//
//   reactive     PrefetchController fixed at one batch window (min_depth ==
//                max_depth == batch_per_rank, no staging, no hot replicas),
//                FIFO eviction. Every epoch re-decompresses nearly
//                everything: the FIFO queue cycles through the permutation,
//                so reuse distances always exceed the budget and the hit
//                rate collapses.
//   clairvoyant  AccessPlan + PrefetchController + Belady eviction. The
//                same warming work, but the cache keeps exactly the files
//                with the nearest scheduled next use, so cross-epoch reuse
//                survives the budget and the per-epoch decompress bill
//                shrinks.
//
// Emits BENCH_clairvoyant.json — the repo's recorded perf trajectory for
// the planner. tools/ci.sh runs `--quick` and treats a non-zero exit as a
// regression: clairvoyant must never be slower than reactive, and the
// Belady hit rate must beat FIFO's under the same warming schedule.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/instance.hpp"
#include "dlsim/datagen.hpp"
#include "dlsim/prefetcher.hpp"
#include "dlsim/trainer.hpp"
#include "plan/access_plan.hpp"
#include "plan/controller.hpp"
#include "simnet/models.hpp"

using namespace fanstore;

namespace {

struct Config {
  int files = 24;
  std::size_t file_bytes = 8 * 1024;
  std::size_t cache_files = 12;  // budget = half the dataset
  int epochs = 3;
  std::size_t batch_per_rank = 4;
  double t_iter_s = 0.00005;  // I/O-bound: the eviction policy is exposed
  int io_parallelism = 4;
};

enum class Mode {
  kReactive,         // fixed one-batch warm window, FIFO eviction
  kClairvoyant,      // plan + controller + Belady eviction
  kClairvoyantFifo,  // plan + controller, FIFO eviction (isolates Belady)
};

struct RunResult {
  double items_per_s = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

RunResult run_case(int nranks, Mode mode, const Config& cfg) {
  std::vector<RunResult> per(static_cast<std::size_t>(nranks));
  mpi::run_world(nranks, [&](mpi::Comm& comm) {
    simnet::VirtualClock clock;
    core::Instance::Options opt;
    opt.fs.cost.enabled = true;
    opt.fs.cost.read_path = simnet::fanstore_read_path(simnet::cpu_cluster());
    opt.fs.cost.network = simnet::cpu_cluster().network;
    opt.fs.clock = &clock;
    opt.fs.cache_bytes = cfg.cache_files * cfg.file_bytes;
    core::Instance inst(comm, opt);

    std::vector<std::string> all_paths;
    std::vector<std::pair<std::string, Bytes>> mine;
    for (int i = 0; i < cfg.files; ++i) {
      std::string path = "ds/f" + std::to_string(i);
      all_paths.push_back(path);
      if (i % nranks == comm.rank()) {
        mine.emplace_back(std::move(path),
                          dlsim::generate_file_sized(
                              dlsim::DatasetKind::kEmTif,
                              static_cast<std::uint64_t>(i), cfg.file_bytes));
      }
    }
    inst.load_partition_blob(as_view(bench::make_partition(mine, "lzma")),
                             static_cast<std::uint32_t>(comm.rank()));
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    dlsim::TrainerOptions topt;
    topt.t_iter_s = cfg.t_iter_s;
    topt.batch_per_rank = cfg.batch_per_rank;
    topt.epochs = cfg.epochs;
    topt.async_io = true;
    topt.io_parallelism = cfg.io_parallelism;
    topt.gradient_len = 16;
    topt.seed = 7;
    topt.io_clock = &clock;
    topt.comm = &comm;
    topt.metrics = &inst.metrics();

    dlsim::Prefetcher warmer(inst.fs(), 1, 1);
    plan::PlanOptions popt;
    popt.seed = topt.seed;
    popt.epochs = cfg.epochs;
    popt.batch_per_rank = cfg.batch_per_rank;
    popt.nranks = comm.size();
    popt.rank = comm.rank();
    plan::AccessPlan ap(all_paths, popt, &inst.metrics());
    if (mode == Mode::kClairvoyant) inst.install_plan(&ap);
    plan::ControllerOptions copt;
    copt.step_time_s = cfg.t_iter_s;
    copt.io_parallelism = cfg.io_parallelism;
    if (mode == Mode::kReactive) {
      // Warm exactly the current batch window each step, in read order.
      copt.min_depth = cfg.batch_per_rank;
      copt.max_depth = cfg.batch_per_rank;
    } else {
      copt.min_depth = cfg.batch_per_rank;
      copt.max_depth = cfg.cache_files / 2;  // never warm-thrash the cache
      copt.stage_horizon = 4 * copt.max_depth;
      copt.hot_replicas = 4;
    }
    plan::PrefetchController ctl(ap, inst.fs(), warmer, clock, copt);
    topt.plan = &ap;
    topt.controller = &ctl;

    const auto result = dlsim::run_training(inst.fs(), all_paths, topt);
    const auto snap = inst.metrics().snapshot();
    auto& slot = per[static_cast<std::size_t>(comm.rank())];
    slot.items_per_s = result.items_per_s;
    slot.hits = snap.counter("cache.hits");
    slot.misses = snap.counter("cache.misses");

    inst.install_plan(nullptr);
    comm.barrier();
    inst.stop();
  });
  RunResult agg;
  for (const auto& r : per) {
    agg.items_per_s += r.items_per_s;
    agg.hits += r.hits;
    agg.misses += r.misses;
  }
  return agg;
}

std::string json_array(const std::vector<int>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(v[i]);
  }
  return out + "]";
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ", ";
    out += bench::fmt("%.3f", v[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_clairvoyant.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }

  Config cfg;
  cfg.files = quick ? 16 : 24;
  cfg.cache_files = static_cast<std::size_t>(cfg.files) / 2;
  cfg.epochs = quick ? 2 : 3;
  const std::vector<int> ranks = quick ? std::vector<int>{8, 64}
                                       : std::vector<int>{8, 64, 512};

  bench::section("Clairvoyant planner vs reactive prefetch (virtual time)");
  std::printf("%d files x %zu B lzma, cache %zu files, %d epochs, "
              "batch %zu, t_iter %.2f ms\n\n",
              cfg.files, cfg.file_bytes, cfg.cache_files, cfg.epochs,
              cfg.batch_per_rank, cfg.t_iter_s * 1e3);

  std::vector<double> reactive_tput;
  std::vector<double> clair_tput;
  std::vector<double> speedup;
  RunResult belady_run;
  bench::Table table({"nodes", "reactive items/s", "clairvoyant items/s",
                      "speedup", "reactive hit%", "clairvoyant hit%"});
  for (const int n : ranks) {
    const RunResult reactive = run_case(n, Mode::kReactive, cfg);
    const RunResult clair = run_case(n, Mode::kClairvoyant, cfg);
    if (n == ranks.front()) belady_run = clair;
    reactive_tput.push_back(reactive.items_per_s);
    clair_tput.push_back(clair.items_per_s);
    speedup.push_back(clair.items_per_s / reactive.items_per_s);
    table.row({std::to_string(n), bench::fmt("%.1f", reactive.items_per_s),
               bench::fmt("%.1f", clair.items_per_s),
               bench::fmt("%.2fx", speedup.back()),
               bench::fmt("%.1f%%", 100.0 * reactive.hit_rate()),
               bench::fmt("%.1f%%", 100.0 * clair.hit_rate())});
  }
  table.print();

  // Eviction ablation: the same plan-driven warming, FIFO vs Belady — the
  // throughput gap above minus the scheduling effects.
  const RunResult fifo_run = run_case(ranks.front(), Mode::kClairvoyantFifo, cfg);
  std::printf("\neviction ablation at %d nodes (same warming schedule):\n"
              "  FIFO   hit rate %.1f%%\n"
              "  Belady hit rate %.1f%%\n",
              ranks.front(), 100.0 * fifo_run.hit_rate(),
              100.0 * belady_run.hit_rate());

  const std::string header = bench::json_header("clairvoyant", quick, "virtual");
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_clairvoyant: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "%s,\n"
               "  \"files\": %d,\n"
               "  \"file_bytes\": %zu,\n"
               "  \"cache_files\": %zu,\n"
               "  \"epochs\": %d,\n"
               "  \"batch_per_rank\": %zu,\n"
               "  \"ranks\": %s,\n"
               "  \"reactive_items_s\": %s,\n"
               "  \"clairvoyant_items_s\": %s,\n"
               "  \"speedup\": %s,\n"
               "  \"belady_hit_rate\": %.4f,\n"
               "  \"fifo_hit_rate\": %.4f\n"
               "}\n",
               header.c_str(), cfg.files, cfg.file_bytes, cfg.cache_files,
               cfg.epochs, cfg.batch_per_rank,
               json_array(ranks).c_str(), json_array(reactive_tput).c_str(),
               json_array(clair_tput).c_str(), json_array(speedup).c_str(),
               belady_run.hit_rate(), fifo_run.hit_rate());
  std::fclose(out);
  std::printf("\nwrote %s\n", json_path.c_str());

  // Regression gates (tools/ci.sh runs --quick and fails on non-zero exit).
  int rc = 0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (clair_tput[i] < reactive_tput[i]) {
      std::fprintf(stderr,
                   "REGRESSION: clairvoyant slower than reactive at %d nodes "
                   "(%.1f < %.1f items/s)\n",
                   ranks[i], clair_tput[i], reactive_tput[i]);
      rc = 1;
    }
    if (!quick && ranks[i] >= 64 && clair_tput[i] <= reactive_tput[i]) {
      std::fprintf(stderr,
                   "REGRESSION: clairvoyant not strictly faster at %d nodes\n",
                   ranks[i]);
      rc = 1;
    }
  }
  if (belady_run.hit_rate() <= fifo_run.hit_rate()) {
    std::fprintf(stderr,
                 "REGRESSION: Belady hit rate %.4f not above FIFO %.4f\n",
                 belady_run.hit_rate(), fifo_run.hit_rate());
    rc = 1;
  }
  return rc;
}
