// fsbench: the repository's benchmark of FanStore's training read path,
// end to end and layer by layer (see fsbench/NOTES.md).
//
//   fsbench --workload epoch_warm|epoch_cold|socket_warm --seed N
//           --seconds S --trace 0|1 [--spans FILE] [--rev REV]
//
// It drives FanStore only through public APIs, the way a training job and
// a node daemon use it: prep::prepare_dataset -> Instance::load_from_shared
// -> exchange_metadata -> start_daemon, then reads through posixfs::Vfs
// (in-process FanStoreFs, or UdsClientVfs over the daemon's socket) from
// dlsim::run_training or a closed-loop socket reader. Every byte read, every
// stat() and every written output is checked against the generator.
//
// Output (stdout): a header JSON line describing the run, then one result
// JSON line {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the run is split into an
// untraced and a traced half and the metrics are the per-layer set. Exit
// status is non-zero on any byte mismatch or registry cross-check failure.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_vfs.hpp"
#include "cluster/node.hpp"
#include "cluster/shard_store.hpp"
#include "compress/registry.hpp"
#include "core/instance.hpp"
#include "dlsim/datagen.hpp"
#include "dlsim/trainer.hpp"
#include "ipc/uds_client.hpp"
#include "obs/metrics.hpp"
#include "posixfs/mem_vfs.hpp"
#include "prep/prepare.hpp"
#include "simnet/models.hpp"
#include "simnet/virtual_clock.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

using namespace fanstore;
using fsbench::now_ns;
using fsbench::percentile;

namespace {

// Extra set-up-only worlds per run; setup_s is the median over these plus
// the measured world's own set-up.
constexpr int kSetupRepeats = 40;
// Spans written to the --spans file (all of them feed the metrics).
constexpr std::size_t kMaxSpansWritten = 200000;
// Reader threads (one per rank, or socket clients): the machine's 4 cores.
constexpr int kReaders = 4;
// Size of each checkpoint-style output file.
constexpr std::size_t kWriteBytes = 4096;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  std::string rev = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--spans") a.spans_path = v;
    else if (k == "--rev") a.rev = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

/// One workload's fixed parameters (inputs beyond these come from --seed).
struct Workload {
  std::string name;
  int ranks = kReaders;        // in-process FanStore ranks
  std::size_t files = 256;
  std::size_t file_bytes = 128 << 10;  // nominal; each file is 7/8..9/8 of it
  std::size_t chunk_size = 0;          // chunked container framing, 0 = flat
  int rf = 4;                          // metadata replication factor
  bool cold = false;  // 1/8 plain tier + compressed tier; else cache >= dataset
  bool socket = false;
  std::size_t batch = 8;        // trainer batch per rank
  std::size_t write_every = 8;  // trainer steps (or socket samples) per write
};

Workload workload_by_name(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "epoch_warm") {
    w.batch = 32;
    w.write_every = 8;
  } else if (name == "epoch_cold") {
    w.files = 128;
    w.file_bytes = 256 << 10;
    w.chunk_size = 64 << 10;
    // One owner per shard: three quarters of every rank's lookups are
    // remote (with rf = 2 exactly half are, which puts the stat median on
    // the cliff between a local hit and an RPC).
    w.rf = 1;
    w.cold = true;
    w.write_every = 2;
  } else if (name == "socket_warm") {
    w.ranks = 1;
    w.files = 512;
    w.file_bytes = 32 << 10;
    w.rf = 1;
    w.socket = true;
    w.write_every = 64;
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return w;
}

/// Generated inputs: the oracle plus the prepared partitions on a
/// "shared filesystem".
struct Dataset {
  fsbench::Oracle oracle;
  posixfs::MemVfs shared;
  prep::Manifest manifest;
  std::size_t bytes = 0;
};

void build_dataset(const Workload& w, std::uint64_t seed, Dataset* ds) {
  posixfs::MemVfs source;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  for (std::size_t i = 0; i < w.files; ++i) {
    char path[64];
    std::snprintf(path, sizeof(path), "ds/d%02zu/f%05zu.tif", i % 8, i);
    const std::size_t size = w.file_bytes * 7 / 8 + rng.next_below(w.file_bytes / 4 + 1);
    Bytes data = dlsim::generate_file_sized(dlsim::DatasetKind::kEmTif, i, size, seed);
    if (posixfs::write_file(source, path, as_view(data)) != 0) {
      throw std::runtime_error(std::string("cannot stage ") + path);
    }
    ds->bytes += data.size();
    fsbench::Oracle::Entry e;
    e.crc = crc32(as_view(data));
    fsbench::Fold fold;
    fold.add(as_view(data));
    e.fold = fold.value();
    e.data = std::move(data);
    ds->oracle.files.emplace(path, std::move(e));
    ds->oracle.paths.emplace_back(path);
  }
  std::sort(ds->oracle.paths.begin(), ds->oracle.paths.end());
  prep::PrepOptions opt;
  opt.num_partitions = std::max(4, w.ranks);
  opt.compressor = "lz4hc";
  opt.chunk_size = w.chunk_size;
  opt.threads = 4;
  ds->manifest = prep::prepare_dataset(source, "ds", ds->shared, "packed", opt);
}

std::size_t plain_budget(const Workload& w, const Dataset& ds) {
  return w.cold ? ds.bytes / 8 : ds.bytes * 4;
}
std::size_t compressed_budget(const Workload& w, const Dataset& ds) {
  return w.cold ? ds.bytes / 8 : 0;
}

core::Instance::Options instance_options(const Workload& w, const Dataset& ds,
                                         simnet::VirtualClock* clock,
                                         const std::string& endpoint) {
  core::Instance::Options opt;
  opt.cluster.replication_factor = w.rf;
  opt.fs.cache_bytes = plain_budget(w, ds);
  opt.fs.compressed_cache_bytes = compressed_budget(w, ds);
  // ranks x decode threads stays within the 4 cores the benchmark targets.
  opt.fs.decode_threads = 1;
  if (clock != nullptr) {
    opt.fs.cost.enabled = true;
    opt.fs.cost.read_path = simnet::fanstore_read_path(simnet::cpu_cluster());
    opt.fs.cost.network = simnet::cpu_cluster().network;
    opt.fs.cost.charge_remote_service = true;
    opt.fs.clock = clock;
  }
  if (!endpoint.empty()) opt.serve_endpoints = {endpoint};
  return opt;
}

/// Partition load + metadata exchange + daemon (and socket server) start,
/// timed across all ranks.
std::unique_ptr<core::Instance> timed_setup(mpi::Comm& comm, Dataset& ds,
                                            core::Instance::Options opt, double* secs) {
  comm.barrier();
  const std::int64_t t0 = now_ns();
  auto inst = std::make_unique<core::Instance>(comm, std::move(opt));
  inst->load_from_shared(ds.shared, ds.manifest.partition_paths());
  inst->exchange_metadata();
  inst->start_daemon();
  comm.barrier();
  *secs = static_cast<double>(now_ns() - t0) / 1e9;
  return inst;
}

/// Contents of output file `index` of `reader`.
Bytes output_bytes(std::uint64_t seed, int reader, std::uint64_t index) {
  Rng rng(seed ^ (static_cast<std::uint64_t>(reader + 1) << 40) ^ (index * 0x2545F4914F6CDD1Dull));
  Bytes out(kWriteBytes);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

/// Reads back every output file `reader` wrote once through `fs` and
/// checks its bytes.
void read_back(posixfs::Vfs& fs, const std::vector<std::string>& outputs, std::uint64_t seed,
               int reader, fsbench::ReaderStats* st) {
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    ++st->attempted;
    const auto got = posixfs::read_file(fs, outputs[i]);
    if (!got || *got != output_bytes(seed, reader, i)) {
      st->fail("output " + outputs[i] + " does not read back");
    }
  }
}

/// Reads one whole sample through `vfs` (open -> read all -> close).
void read_sample(posixfs::Vfs& vfs, const std::string& path, Bytes& buf) {
  const int fd = vfs.open(path, posixfs::OpenMode::kRead);
  if (fd < 0) return;  // BenchVfs counts the failed open
  while (vfs.read(fd, MutByteView{buf.data(), buf.size()}) > 0) {
  }
  vfs.close(fd);
}

// --- direct layer probes (traced runs only) -----------------------------

struct ProbeOut {
  std::vector<double> lookup_us, resolve_us, get_us, hop_us;
  double decode_bytes = 0;
  double decode_ns = 0;
  fsbench::ReaderStats checks;  // attempted/failed of the probes' own checks
};

/// Times MetadataStore::lookup on every dataset path.
void probe_lookups(core::Instance& inst, const Dataset& ds, ProbeOut* po) {
  for (const auto& path : ds.oracle.paths) {
    const std::int64_t t0 = now_ns();
    inst.metadata().lookup(path);
    po->lookup_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
}

/// Times ClusterNode::resolve on the paths whose shard this rank does not
/// own, CompressedBackend::get on locally held blobs, and
/// Compressor::decompress on those blobs (checked against the oracle).
void probe_layers(core::Instance& inst, const Dataset& ds, ProbeOut* po) {
  cluster::ClusterNode* node = inst.cluster_node();
  if (node != nullptr && node->sharded()) {
    for (const auto& path : ds.oracle.paths) {
      if (node->owns_shard(cluster::shard_of(path, node->nshards()))) continue;
      ++po->checks.attempted;
      const std::int64_t t0 = now_ns();
      const auto vs = node->resolve(path);
      po->resolve_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      if (!vs || vs->stat.size != ds.oracle.files.at(path).data.size()) {
        po->checks.fail("resolve " + path);
      }
    }
  }
  const auto& reg = compress::Registry::instance();
  for (const auto& path : ds.oracle.paths) {
    if (!inst.backend().contains(path)) continue;
    ++po->checks.attempted;
    const std::int64_t t0 = now_ns();
    const auto blob = inst.backend().get(path);
    const std::int64_t t1 = now_ns();
    po->get_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    const Bytes& want = ds.oracle.files.at(path).data;
    const compress::Compressor* codec = blob ? reg.by_id(blob->compressor) : nullptr;
    if (codec == nullptr) {
      po->checks.fail("backend get " + path);
      continue;
    }
    const std::int64_t t2 = now_ns();
    const Bytes plain = codec->decompress(as_view(blob->data), want.size());
    po->decode_ns += static_cast<double>(now_ns() - t2);
    po->decode_bytes += static_cast<double>(plain.size());
    if (plain != want) po->checks.fail("decode " + path);
  }
}

/// Socket hop: one client sample minus the in-process sample of the same
/// file, unloaded.
void probe_hop(core::Instance& inst, const std::string& endpoint, const Dataset& ds,
               ProbeOut* po) {
  ipc::UdsClientVfs client(endpoint);
  Bytes buf(1 << 20);
  const auto sample_ns = [&](posixfs::Vfs& fs, const std::string& path) {
    const std::int64_t t0 = now_ns();
    read_sample(fs, path, buf);
    return static_cast<double>(now_ns() - t0);
  };
  for (const auto& path : ds.oracle.paths) {
    const double remote = sample_ns(client, path);
    const double local = sample_ns(inst.fs(), path);
    po->hop_us.push_back((remote - local) / 1e3);
  }
}

// --- measured phases ------------------------------------------------------

/// One reader's share of a measured phase. The phase is cut into rounds
/// of about a second; end-to-end figures are medians over rounds, so a
/// burst of noise on the machine moves one round, not the result.
struct PhaseOut {
  std::vector<fsbench::ReaderStats> rounds;
  obs::MetricsSnapshot before, after;
  double modeled_items = 0;  // virtual clock (trainer workloads)
  double modeled_s = 0;
  std::uint64_t storm_remote_lookups = 0;
};

struct RankOut {
  std::vector<PhaseOut> phases;
  ProbeOut probe;
  fsbench::ReaderStats finish;  // warm pass + read-back checks
};

struct PhasePlan {
  double seconds;
  bool traced;
  std::size_t rounds;
};

struct RunOut {
  std::vector<RankOut> ranks;  // per rank (epoch_*) or per client (socket)
  std::vector<obs::MetricsSnapshot> mpi_before, mpi_after;  // per phase
  std::vector<double> wall_s;                               // per phase
  std::vector<double> setups;
};

void run_trainer_workload(const Workload& w, const Args& args, Dataset& ds,
                          const std::vector<PhasePlan>& plan, RunOut* run) {
  run->ranks.resize(static_cast<std::size_t>(w.ranks));
  run->mpi_before.resize(plan.size());
  run->mpi_after.resize(plan.size());
  run->wall_s.resize(plan.size());
  mpi::run_world(w.ranks, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    RankOut& out = run->ranks[static_cast<std::size_t>(r)];
    out.phases.resize(plan.size());
    simnet::VirtualClock clock;
    double setup_s = 0;
    auto inst = timed_setup(comm, ds, instance_options(w, ds, &clock, ""), &setup_s);
    if (r == 0) run->setups.push_back(setup_s);

    // Each rank trains on its own: its own shuffle of the whole dataset per
    // epoch, no allreduce. With the ranks in lock step (global shuffle), a
    // vCPU the hypervisor takes away stalls all four and the figures swing
    // by 2x from run to run on a shared VM; apart, it slows one reader.
    dlsim::TrainerOptions topt;
    topt.t_iter_s = 5e-6;  // I/O-bound: the read path is what is modeled
    topt.batch_per_rank = w.batch;
    topt.epochs = 1;
    topt.async_io = true;
    topt.io_parallelism = 4;
    topt.io_clock = &clock;
    topt.metrics = &inst->metrics();
    const auto epoch_seed = [&](std::uint64_t epoch) {
      return (args.seed * 1000003 + epoch) * 7919 + static_cast<std::uint64_t>(r);
    };

    // Unmeasured warm pass: epoch_warm loads the whole dataset into every
    // rank's cache; epoch_cold runs one epoch so the tiers reach steady
    // state.
    out.finish.attempted += 1;
    if (w.cold) {
      topt.seed = epoch_seed(0);
      dlsim::run_training(inst->fs(), ds.oracle.paths, topt);
    } else {
      for (const auto& path : ds.oracle.paths) {
        const auto data = posixfs::read_file(inst->fs(), path);
        if (!data || *data != ds.oracle.files.at(path).data) {
          out.finish.fail("warm read " + path);
        }
      }
    }

    fsbench::BenchVfs vfs(inst->fs(), ds.oracle, r, /*round_trips=*/false);
    std::vector<std::string> outputs;
    std::uint64_t steps = 0;
    vfs.set_steps(w.batch, [&] {
      if (++steps % w.write_every != 0) return;
      const std::string path = "out/r" + std::to_string(r) + "/ckpt" +
                               std::to_string(outputs.size()) + ".bin";
      vfs.write_output(inst->fs(), path,
                       as_view(output_bytes(args.seed, r, outputs.size())));
      outputs.push_back(path);
    });
    obs::Counter& remote_lookups = inst->metrics().counter("cluster.lookups_remote");

    std::uint64_t epoch_seq = 0;
    for (std::size_t p = 0; p < plan.size(); ++p) {
      PhaseOut& ph = out.phases[p];
      ph.rounds.resize(plan[p].rounds);
      std::size_t round = 0;
      comm.barrier();
      ph.before = inst->metrics().snapshot();
      if (r == 0) run->mpi_before[p] = obs::MetricsRegistry::global().snapshot();
      comm.barrier();
      const std::int64_t t0 = now_ns();
      vfs.set_phase(&ph.rounds[0], plan[p].traced);
      for (;;) {
        vfs.begin_epoch();
        const std::uint64_t lookups0 = remote_lookups.value();
        vfs.storm("ds");
        ph.storm_remote_lookups += remote_lookups.value() - lookups0;
        topt.seed = epoch_seed(++epoch_seq);
        const auto res = dlsim::run_training(vfs, ds.oracle.paths, topt);
        ph.modeled_items += static_cast<double>(res.files_read);
        ph.modeled_s += res.total_s;
        // Each rank keeps its own time: the epoch just finished ends the
        // current round so far.
        const double elapsed = static_cast<double>(now_ns() - t0) / 1e9;
        if (elapsed >= plan[p].seconds) break;
        const auto next = static_cast<std::size_t>(
            elapsed * static_cast<double>(plan[p].rounds) / plan[p].seconds);
        if (next != round) {
          round = std::min(next, plan[p].rounds - 1);
          vfs.set_phase(&ph.rounds[round], plan[p].traced);
        }
      }
      vfs.close_phase();
      if (r == 0) run->wall_s[p] = static_cast<double>(now_ns() - t0) / 1e9;
      comm.barrier();
      ph.after = inst->metrics().snapshot();
      if (r == 0) run->mpi_after[p] = obs::MetricsRegistry::global().snapshot();
      comm.barrier();
    }

    if (args.trace) {
      probe_lookups(*inst, ds, &out.probe);
      probe_layers(*inst, ds, &out.probe);
    }
    read_back(inst->fs(), outputs, args.seed, r, &out.finish);
    comm.barrier();
    inst->stop();
  });
}

void run_socket_workload(const Workload& w, const Args& args, Dataset& ds,
                         const std::vector<PhasePlan>& plan, RunOut* run) {
  run->ranks.resize(static_cast<std::size_t>(kReaders));
  run->mpi_before.resize(plan.size());
  run->mpi_after.resize(plan.size());
  run->wall_s.resize(plan.size());
  // A relative path keeps the socket inside the working directory and far
  // below the sun_path limit.
  const std::string endpoint =
      "unix:.bench_build/fsbench-" + std::to_string(::getpid()) + ".sock";
  mpi::run_world(1, [&](mpi::Comm& comm) {
    double setup_s = 0;
    auto inst = timed_setup(comm, ds, instance_options(w, ds, nullptr, endpoint), &setup_s);
    run->setups.push_back(setup_s);
    RankOut& first = run->ranks[0];
    first.finish.attempted += 1;
    for (const auto& path : ds.oracle.paths) {
      const auto data = posixfs::read_file(inst->fs(), path);
      if (!data || *data != ds.oracle.files.at(path).data) first.finish.fail("warm read " + path);
    }
    std::vector<std::vector<std::string>> outputs(static_cast<std::size_t>(kReaders));

    for (auto& ro : run->ranks) ro.phases.resize(plan.size());
    for (std::size_t p = 0; p < plan.size(); ++p) {
      for (auto& ro : run->ranks) ro.phases[p].rounds.resize(plan[p].rounds);
      const double round_s = plan[p].seconds / static_cast<double>(plan[p].rounds);
      PhaseOut& ph0 = run->ranks[0].phases[p];
      ph0.before = inst->metrics().snapshot();
      run->mpi_before[p] = obs::MetricsRegistry::global().snapshot();
      const std::int64_t t0 = now_ns();
      const std::int64_t deadline = t0 + static_cast<std::int64_t>(plan[p].seconds * 1e9);
      std::vector<std::thread> clients;
      for (int c = 0; c < kReaders; ++c) {
        clients.emplace_back([&, c] {
          PhaseOut& ph = run->ranks[static_cast<std::size_t>(c)].phases[p];
          auto& outs = outputs[static_cast<std::size_t>(c)];
          ipc::UdsClientVfs client(endpoint);
          fsbench::BenchVfs vfs(client, ds.oracle, c, /*round_trips=*/true);
          std::size_t round = 0;
          vfs.set_phase(&ph.rounds[0], plan[p].traced);
          const auto next_round = [&] {
            const auto k = std::min<std::size_t>(
                plan[p].rounds - 1,
                static_cast<std::size_t>(static_cast<double>(now_ns() - t0) / 1e9 / round_s));
            if (k != round) {
              round = k;
              vfs.set_phase(&ph.rounds[round], plan[p].traced);
            }
          };
          Rng rng(args.seed * 7919 + static_cast<std::uint64_t>(c) * 104729 + p);
          Bytes buf(1 << 20);
          std::uint64_t n = 0;
          while (now_ns() < deadline) {
            std::vector<std::string> order = vfs.storm("ds");
            for (std::size_t i = order.size(); i > 1; --i) {
              std::swap(order[i - 1], order[rng.next_below(i)]);
            }
            for (const auto& path : order) {
              if (now_ns() >= deadline) break;
              next_round();
              read_sample(vfs, path, buf);
              if (++n % w.write_every != 0) continue;
              // Outputs go through the in-process fs: the socket face is
              // read-only, writes stay with FanStoreFs.
              const std::string out = "out/c" + std::to_string(c) + "/w" +
                                      std::to_string(outs.size()) + ".bin";
              vfs.write_output(inst->fs(), out,
                               as_view(output_bytes(args.seed, c, outs.size())));
              outs.push_back(out);
            }
          }
          vfs.close_phase();
        });
      }
      for (auto& t : clients) t.join();
      run->wall_s[p] = static_cast<double>(now_ns() - t0) / 1e9;
      ph0.after = inst->metrics().snapshot();
      run->mpi_after[p] = obs::MetricsRegistry::global().snapshot();
    }

    if (args.trace) {
      // Four concurrent lookup probes on the one MetadataStore, as the
      // four clients' stat() storm hits it.
      std::vector<std::thread> probes;
      for (int c = 0; c < kReaders; ++c) {
        probes.emplace_back([&, c] {
          probe_lookups(*inst, ds, &run->ranks[static_cast<std::size_t>(c)].probe);
        });
      }
      for (auto& t : probes) t.join();
      probe_layers(*inst, ds, &first.probe);
      probe_hop(*inst, endpoint, ds, &first.probe);
    }
    for (int c = 0; c < kReaders; ++c) {
      read_back(inst->fs(), outputs[static_cast<std::size_t>(c)], args.seed, c, &first.finish);
    }
    inst->stop();
  });
  ::unlink(endpoint.substr(5).c_str());
}

/// Set-up-only worlds: the same set-up as the measured world, torn down
/// right after.
void repeat_setups(const Workload& w, Dataset& ds, RunOut* run) {
  const std::string endpoint =
      "unix:.bench_build/fsbench-setup-" + std::to_string(::getpid()) + ".sock";
  for (int k = 0; k < kSetupRepeats; ++k) {
    double secs = 0;
    mpi::run_world(w.ranks, [&](mpi::Comm& comm) {
      simnet::VirtualClock clock;
      double s = 0;
      auto inst = timed_setup(
          comm, ds,
          instance_options(w, ds, w.socket ? nullptr : &clock, w.socket ? endpoint : ""),
          &s);
      if (comm.rank() == 0) secs = s;
      comm.barrier();
      inst->stop();
    });
    run->setups.push_back(secs);
  }
  if (w.socket) ::unlink(endpoint.substr(5).c_str());
}

// --- aggregation ----------------------------------------------------------

/// Registry deltas of one phase, summed over ranks.
struct Deltas {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, obs::HistogramSnapshot> hists;
  std::uint64_t mpi_messages = 0;
  std::uint64_t mpi_bytes = 0;

  std::uint64_t c(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double q(const std::string& name, double p) const {
    const auto it = hists.find(name);
    return it == hists.end() ? 0.0 : it->second.quantile(p);
  }
};

const char* const kCounterNames[] = {
    "fs.opens", "cache.hits", "cache.misses", "cache.evictions",
    "cache.single_flight_waits", "tier.plain.hits", "tier.compressed.hits",
    "tier.spill.hits", "tier.peer.hits", "tier.cold.loads", "trainer.files_read",
    "retry.attempts", "fs.failovers", "fs.remote_fetches", "chunked.chunks_decoded",
    "daemon.meta_forwards", "fs.bytes_written", "ipc.requests", "ipc.loop_wakeups",
    "ipc.bytes_out", "cluster.lookups_remote"};
const char* const kHistNames[] = {"fs.fetch_us", "daemon.serve_us", "chunked.decode_us",
                                  "ipc.serve_us", "ipc.blocker_wait_us",
                                  "ipc.loop_dispatch_us"};

void add_deltas(const obs::MetricsSnapshot& a, const obs::MetricsSnapshot& b, Deltas* d) {
  for (const char* name : kCounterNames) d->counters[name] += b.counter(name) - a.counter(name);
  for (const char* name : kHistNames) {
    const auto* eb = b.find(name);
    if (eb == nullptr) continue;
    const auto* ea = a.find(name);
    obs::HistogramSnapshot& h = d->hists[name];
    h.counts.resize(eb->hist.counts.size(), 0);
    for (std::size_t i = 0; i < eb->hist.counts.size(); ++i) {
      const std::uint64_t before = ea != nullptr ? ea->hist.counts[i] : 0;
      h.counts[i] += eb->hist.counts[i] - before;
      h.count += eb->hist.counts[i] - before;
    }
  }
}

Deltas phase_deltas(const RunOut& run, std::size_t p) {
  Deltas d;
  for (const auto& ro : run.ranks) {
    const PhaseOut& ph = ro.phases[p];
    if (ph.after.entries.empty()) continue;  // socket: only reader 0 snapshots
    add_deltas(ph.before, ph.after, &d);
  }
  d.mpi_messages = run.mpi_after[p].counter("mpi.messages_sent") -
                   run.mpi_before[p].counter("mpi.messages_sent");
  d.mpi_bytes = run.mpi_after[p].counter("mpi.bytes_sent") -
                run.mpi_before[p].counter("mpi.bytes_sent");
  return d;
}

fsbench::ReaderStats phase_stats(const RunOut& run, std::size_t p) {
  fsbench::ReaderStats s;
  for (const auto& ro : run.ranks) {
    for (const auto& rs : ro.phases[p].rounds) s.merge(rs);
  }
  return s;
}

/// End-to-end figures of one phase: each is the median over its rounds
/// (writes are too few per round and are pooled instead).
struct RoundFigures {
  double samples_per_s = 0, sample_p50 = 0, sample_p99 = 0, stat_p50 = 0, stat_p99 = 0;
  std::size_t rounds = 0;
  std::uint64_t min_round_samples = 0, min_round_stats = 0;  // support per round
};

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

RoundFigures round_figures(const RunOut& run, std::size_t p) {
  std::vector<double> sps, s50, s99, t50, t99;
  std::uint64_t min_samples = UINT64_MAX, min_stats = UINT64_MAX;
  for (std::size_t k = 0; k < run.ranks[0].phases[p].rounds.size(); ++k) {
    fsbench::ReaderStats s;
    double rate = 0;  // Σ over readers of samples / active time
    for (const auto& ro : run.ranks) {
      const fsbench::ReaderStats& rs = ro.phases[p].rounds[k];
      if (rs.active_ns > 0) rate += static_cast<double>(rs.samples) / (rs.active_ns / 1e9);
      s.merge(rs);
    }
    if (s.samples == 0) continue;
    min_samples = std::min(min_samples, s.sample_us.count());
    min_stats = std::min(min_stats, s.stat_us.count());
    sps.push_back(rate);
    s50.push_back(percentile(s.sample_us, 50));
    s99.push_back(percentile(s.sample_us, 99));
    t50.push_back(percentile(s.stat_us, 50));
    t99.push_back(percentile(s.stat_us, 99));
  }
  std::fprintf(stderr, "fsbench: phase %zu per-round samples/s:", p);
  for (const double v : sps) std::fprintf(stderr, " %.0f", v);
  std::fprintf(stderr, "\n");
  if (sps.empty()) min_samples = min_stats = 0;
  return {median(sps), median(s50),  median(s99), median(t50),
          median(t99), sps.size(),   min_samples, min_stats};
}

/// The benchmark's own counts against the registry's; returns failures.
std::vector<std::string> cross_check(const Workload& w, const fsbench::ReaderStats& s,
                                     const Deltas& d) {
  std::vector<std::string> bad;
  const auto expect = [&](const std::string& what, std::uint64_t got, std::uint64_t want) {
    if (got != want) {
      bad.push_back(what + ": registry " + std::to_string(got) + " != " +
                    std::to_string(want));
    }
  };
  expect("fs.opens delta vs opens issued", d.c("fs.opens"), s.opens);
  expect("cache.hits + cache.misses vs fs.opens", d.c("cache.hits") + d.c("cache.misses"),
         d.c("fs.opens"));
  if (w.cold) {
    expect("tier identity: cache.misses vs compressed+spill+peer+cold",
           d.c("tier.compressed.hits") + d.c("tier.spill.hits") + d.c("tier.peer.hits") +
               d.c("tier.cold.loads"),
           d.c("cache.misses"));
  } else {
    expect("warm workload: cache.misses", d.c("cache.misses"), 0);
  }
  if (w.socket) {
    expect("ipc.requests vs client round trips", d.c("ipc.requests"), s.round_trips);
  } else {
    expect("trainer.files_read vs samples read", d.c("trainer.files_read"), s.samples);
  }
  expect("retry.attempts", d.c("retry.attempts"), 0);
  expect("fs.failovers", d.c("fs.failovers"), 0);
  return bad;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Machine-wide CPU time from /proc/stat's "cpu" line, in ticks: the part
/// the hypervisor gave to other guests (steal) and the total. Zeros where
/// the file is missing.
struct CpuTicks {
  double steal = 0, total = 0;
};

CpuTicks cpu_ticks() {
  CpuTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  double v[8] = {};  // user nice system idle iowait irq softirq steal
  if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1], &v[2], &v[3], &v[4],
                  &v[5], &v[6], &v[7]) == 8) {
    t.steal = v[7];
    for (const double x : v) t.total += x;
  }
  std::fclose(f);
  return t;
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

void write_spans(const std::string& path, const RunOut& run, std::size_t p) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::size_t total = 0;
  for (const auto& ro : run.ranks) {
    for (const auto& rs : ro.phases[p].rounds) total += rs.spans.size();
  }
  std::fprintf(f, "{\"total_spans\": %zu, \"written\": %zu, \"fields\": "
               "[\"reader\", \"name\", \"start_us\", \"end_us\", \"parent\", \"sample\"], "
               "\"spans\": [\n",
               total, std::min(total, kMaxSpansWritten));
  // `parent` is rewritten as an index into the written array.
  std::size_t written = 0;
  for (std::size_t r = 0; r < run.ranks.size(); ++r) {
    for (const auto& rs : run.ranks[r].phases[p].rounds) {
      const auto base = static_cast<long long>(written);
      for (const auto& s : rs.spans) {
        if (written == kMaxSpansWritten) break;
        std::fprintf(f, "%s[%zu, \"%s\", %.3f, %.3f, %lld, %llu]", written == 0 ? "" : ",\n",
                     r, fsbench::kSpanNames[s.name], static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(s.end_ns) / 1e3, s.parent < 0 ? -1LL : base + s.parent,
                     static_cast<unsigned long long>(s.sample));
        ++written;
      }
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

int run(const Args& args) {
  const Workload w = workload_by_name(args.workload);
  Dataset ds;
  build_dataset(w, args.seed, &ds);

  std::vector<PhasePlan> plan;
  // About one round per second.
  const auto rounds_for = [](double secs) {
    return static_cast<std::size_t>(std::max(1.0, std::round(secs)));
  };
  if (args.trace) {
    plan = {{args.seconds / 2, false, rounds_for(args.seconds / 2)},
            {args.seconds / 2, true, rounds_for(args.seconds / 2)}};
  } else {
    plan = {{args.seconds, false, rounds_for(args.seconds)}};
  }
  RunOut run;
  const CpuTicks ticks0 = cpu_ticks();
  repeat_setups(w, ds, &run);
  if (w.socket) {
    run_socket_workload(w, args, ds, plan, &run);
  } else {
    run_trainer_workload(w, args, ds, plan, &run);
  }
  const CpuTicks ticks1 = cpu_ticks();

  // Measured phase: the untraced run, or the traced half of a traced run.
  const std::size_t mp = plan.size() - 1;
  const fsbench::ReaderStats s = phase_stats(run, mp);
  const Deltas d = phase_deltas(run, mp);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  for (std::size_t p = 0; p < plan.size(); ++p) {
    const fsbench::ReaderStats ps = phase_stats(run, p);
    attempted += ps.attempted;
    failed += ps.failed;
    errors.insert(errors.end(), ps.errors.begin(), ps.errors.end());
    for (auto& e : cross_check(w, ps, phase_deltas(run, p))) {
      errors.push_back("registry cross-check: " + e);
    }
  }
  double modeled = 0;
  ProbeOut probe;
  for (const auto& ro : run.ranks) {
    attempted += ro.finish.attempted + ro.probe.checks.attempted;
    failed += ro.finish.failed + ro.probe.checks.failed;
    errors.insert(errors.end(), ro.finish.errors.begin(), ro.finish.errors.end());
    errors.insert(errors.end(), ro.probe.checks.errors.begin(), ro.probe.checks.errors.end());
    const PhaseOut& ph = ro.phases[mp];
    modeled += ratio(ph.modeled_items, ph.modeled_s);
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(probe.lookup_us, ro.probe.lookup_us);
    cat(probe.resolve_us, ro.probe.resolve_us);
    cat(probe.get_us, ro.probe.get_us);
    cat(probe.hop_us, ro.probe.hop_us);
    probe.decode_bytes += ro.probe.decode_bytes;
    probe.decode_ns += ro.probe.decode_ns;
  }
  std::uint64_t storm_remote = 0;
  for (const auto& ro : run.ranks) storm_remote += ro.phases[mp].storm_remote_lookups;
  const bool correct = failed == 0 && errors.empty();

  const double wall = run.wall_s[mp];
  const RoundFigures fig = round_figures(run, mp);
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"samples_per_s", fig.samples_per_s, "samples/s"},
        {"sample_p50_us", fig.sample_p50, "us"},
        {"stat_p50_us", fig.stat_p50, "us"},
        {"setup_s", median(run.setups), "s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
    };
  } else {
    const double opens = static_cast<double>(d.c("fs.opens"));
    const double misses = static_cast<double>(d.c("cache.misses"));
    const double writes = static_cast<double>(s.write_us.count());
    const double requests = static_cast<double>(d.c("ipc.requests"));
    const double untraced_sps = round_figures(run, 0).samples_per_s;
    double hop = 0;
    if (!probe.hop_us.empty()) hop = percentile(probe.hop_us, 50);
    const double raw = static_cast<double>(ds.bytes);
    const double packed = static_cast<double>(ds.manifest.total_packed());
    metrics = {
        // Tails and writes: reported, not bounded (see NOTES.md, "Why the
        // p99s and writes are not bounded").
        {"sample_p99_us", fig.sample_p99, "us"},
        {"stat_p99_us", fig.stat_p99, "us"},
        {"write_p50_us", percentile(s.write_us, 50), "us"},
        {"write_p99_us", percentile(s.write_us, 99), "us"},
        {"posixfs.open_us.p50", percentile(s.open_us, 50), "us"},
        {"posixfs.open_us.p99", percentile(s.open_us, 99), "us"},
        {"posixfs.read_us.p50", percentile(s.read_us, 50), "us"},
        {"posixfs.close_us.p50", percentile(s.close_us, 50), "us"},
        {"posixfs.write_close_us.p50", percentile(s.write_close_us, 50), "us"},
        {"cache.hit_ratio", ratio(static_cast<double>(d.c("cache.hits")), opens), "ratio"},
        {"cache.evictions_per_open", ratio(static_cast<double>(d.c("cache.evictions")), opens),
         "count"},
        {"cache.single_flight_waits", static_cast<double>(d.c("cache.single_flight_waits")),
         "count"},
        {"tier.compressed.hit_ratio",
         ratio(static_cast<double>(d.c("tier.compressed.hits")), misses), "ratio"},
        {"tier.cold_or_peer_per_open",
         ratio(static_cast<double>(d.c("tier.cold.loads") + d.c("tier.peer.hits")), opens),
         "count"},
        {"meta.lookup_us.p50", percentile(probe.lookup_us, 50), "us"},
        {"meta.lookup_us.p99", percentile(probe.lookup_us, 99), "us"},
        {"cluster.resolve_us.p50", percentile(probe.resolve_us, 50), "us"},
        {"cluster.resolve_us.p99", percentile(probe.resolve_us, 99), "us"},
        {"cluster.lookups_remote_per_open",
         ratio(static_cast<double>(d.c("cluster.lookups_remote") - storm_remote), opens),
         "count"},
        {"cluster.lookups_remote_per_stat",
         ratio(static_cast<double>(storm_remote), static_cast<double>(s.stat_us.count())),
         "count"},
        {"fetch.remote_per_open", ratio(static_cast<double>(d.c("fs.remote_fetches")), opens),
         "count"},
        {"fetch_us.p50", d.q("fs.fetch_us", 50), "us"},
        {"fetch_us.p99", d.q("fs.fetch_us", 99), "us"},
        {"daemon.serve_us.p50", d.q("daemon.serve_us", 50), "us"},
        {"mpi.messages_per_open", ratio(static_cast<double>(d.mpi_messages), opens), "count"},
        {"mpi.bytes_per_open", ratio(static_cast<double>(d.mpi_bytes), opens), "B"},
        {"retry.attempts", static_cast<double>(d.c("retry.attempts")), "count"},
        {"backend.get_us.p50", percentile(probe.get_us, 50), "us"},
        {"compress.decode_mib_per_s",
         ratio(probe.decode_bytes / (1 << 20), probe.decode_ns / 1e9), "MiB/s"},
        {"chunked.chunks_decoded_per_open",
         ratio(static_cast<double>(d.c("chunked.chunks_decoded")), opens), "count"},
        {"chunked.decode_us.p50", d.q("chunked.decode_us", 50), "us"},
        {"compress.ratio", ratio(raw, packed), "ratio"},
        {"daemon.meta_forwards_per_write",
         ratio(static_cast<double>(d.c("daemon.meta_forwards")), writes), "count"},
        {"fs.bytes_written", static_cast<double>(d.c("fs.bytes_written")), "B"},
        {"ipc.client_call_us.p50", percentile(s.call_us, 50), "us"},
        {"ipc.client_call_us.p99", percentile(s.call_us, 99), "us"},
        {"ipc.hop_us.p50", hop, "us"},
        {"ipc.serve_us.p50", d.q("ipc.serve_us", 50), "us"},
        {"ipc.serve_us.p99", d.q("ipc.serve_us", 99), "us"},
        {"ipc.blocker_wait_us.p50", d.q("ipc.blocker_wait_us", 50), "us"},
        {"ipc.blocker_wait_us.p99", d.q("ipc.blocker_wait_us", 99), "us"},
        {"ipc.loop_dispatch_us.p50", d.q("ipc.loop_dispatch_us", 50), "us"},
        {"ipc.loop_wakeups_per_request",
         ratio(static_cast<double>(d.c("ipc.loop_wakeups")), requests), "count"},
        {"ipc.bytes_out_per_request", ratio(static_cast<double>(d.c("ipc.bytes_out")), requests),
         "B"},
        {"trainer.step_overhead_us.p50", percentile(s.step_wait_us, 50), "us"},
        {"trainer.step_overhead_us.p99", percentile(s.step_wait_us, 99), "us"},
        {"trainer.io_share", ratio(s.step_vfs_ns, s.step_wall_ns), "ratio"},
        {"trainer.modeled_items_per_s", modeled, "items/s"},
        {"breakdown.residual_pct",
         100.0 * ratio(std::abs(s.sample_calls_ns - s.sample_ns), s.sample_ns), "%"},
        {"trace.overhead_pct", 100.0 * ratio(untraced_sps - fig.samples_per_s, untraced_sps),
         "%"},
    };
    if (!args.spans_path.empty()) write_spans(args.spans_path, run, mp);
  }

  // Header: what was run, on what, and how much data stands behind each
  // figure.
  const auto n = [](std::size_t v) { return std::to_string(v); };
  std::string h = "{\"fsbench_header\": {";
  h += "\"workload\": \"" + w.name + "\", \"seed\": " + std::to_string(args.seed);
  h += ", \"seconds\": " + json_number(args.seconds);
  h += ", \"traced\": " + std::string(args.trace ? "true" : "false");
  h += ", \"git_rev\": \"" + json_escape(args.rev) + "\"";
  h += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  h += ", \"ranks\": " + std::to_string(w.ranks) + ", \"readers\": " +
       std::to_string(kReaders);
  h += ", \"files\": " + n(w.files) + ", \"sample_bytes_nominal\": " + n(w.file_bytes);
  h += ", \"dataset_bytes\": " + n(ds.bytes) + ", \"dataset_packed_bytes\": " +
       n(ds.manifest.total_packed());
  h += ", \"plain_cache_bytes_per_rank\": " + n(plain_budget(w, ds));
  h += ", \"compressed_tier_bytes_per_rank\": " + n(compressed_budget(w, ds));
  h += ", \"replication_factor\": " + std::to_string(w.rf);
  h += ", \"codec\": \"lz4hc" +
       (w.chunk_size ? std::string(" chunked ") + n(w.chunk_size >> 10) + "k" : "") + "\"";
  h += ", \"batch_per_rank\": " + n(w.batch) + ", \"write_every\": \"" + n(w.write_every) +
       (w.socket ? " samples\"" : " steps\"");
  h += ", \"write_bytes\": " + n(kWriteBytes);
  h += ", \"wall_s\": " + json_number(wall) + ", \"rounds\": " + n(fig.rounds);
  // Share of all vCPU time the host took away during set-up and the
  // measured phases: a run slowed by other guests shows here.
  h += ", \"host_steal_pct\": " +
       json_number(100.0 * ratio(ticks1.steal - ticks0.steal, ticks1.total - ticks0.total));
  h += ", \"counts\": {\"samples\": " + n(s.sample_us.count()) + ", \"stats\": " +
       n(s.stat_us.count()) + ", \"writes\": " + n(s.write_us.count()) + ", \"setups\": " +
       n(run.setups.size()) + ", \"steps\": " + n(s.step_wait_us.count()) +
       ", \"socket_calls\": " + n(s.call_us.count()) + "}";
  // sample/stat percentiles are per-round medians; writes are pooled. A
  // p99 needs >= 1000 values behind it (ten beyond it).
  h += ", \"min_round_counts\": {\"samples\": " + n(fig.min_round_samples) +
       ", \"stats\": " + n(fig.min_round_stats) + "}";
  const auto yes = [](bool b) { return std::string(b ? "true" : "false"); };
  h += ", \"p99_supported\": {\"sample\": " + yes(fig.min_round_samples >= 1000) +
       ", \"stat\": " + yes(fig.min_round_stats >= 1000) +
       ", \"write\": " + yes(s.write_us.count() >= 1000) + "}";
  h += ", \"attempted\": " + std::to_string(attempted) + ", \"failed\": " +
       std::to_string(failed) + ", \"failed_ops_ratio\": " +
       json_number(ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  h += ", \"clock\": {\"trainer.modeled_items_per_s\": \"virtual\", \"default\": \"wall\"}";
  h += ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size() && i < 8; ++i) {
    h += (i ? ", \"" : "\"") + json_escape(errors[i]) + "\"";
  }
  h += "]}}";
  std::printf("%s\n", h.c_str());

  for (const auto& m : metrics) {
    std::fprintf(stderr, "  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& e : errors) std::fprintf(stderr, "fsbench: FAILED: %s\n", e.c_str());

  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsbench: %s\n", e.what());
    return 2;
  }
}
