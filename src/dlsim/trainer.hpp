// Distributed training-loop harness (§II-A, §VI-A).
//
// Models the data-parallel loop: each iteration every rank reads
// batch-per-rank files through a Vfs (FanStore or a shared-FS model),
// "computes" for T_iter (forward + allreduce + backward, taken from the
// application profile as the paper does), and synchronizes with its peers.
// I/O may be synchronous (Fig. 5a: io + compute sequential) or
// asynchronous (Fig. 5b: prefetch overlaps the previous compute, iteration
// time = max(io, compute)).
//
// Virtual-time accounting: the Vfs charges device/decompress costs to a
// dedicated clock; the trainer reads the per-batch delta, divides by
// io_parallelism (the paper's own approximation, §VII-E1), and combines it
// with T_iter according to the I/O mode. Per-iteration times are maxed
// across ranks (synchronized SGD).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "obs/metrics.hpp"
#include "posixfs/vfs.hpp"
#include "simnet/virtual_clock.hpp"

namespace fanstore::plan {
class AccessPlan;
class PrefetchController;
}  // namespace fanstore::plan

namespace fanstore::dlsim {

struct TrainerOptions {
  double t_iter_s = 0.5;            // compute (incl. allreduce) per iteration
  std::size_t batch_per_rank = 8;   // files per rank per iteration
  int epochs = 1;
  std::size_t max_iterations = 0;   // 0 = run full epochs
  bool async_io = true;
  int io_parallelism = 4;           // parallel reader threads being modeled
  std::uint64_t seed = 1;
  /// The clock the Vfs charges; required. The trainer owns total-time
  /// accounting and reads per-batch deltas from it.
  simnet::VirtualClock* io_clock = nullptr;
  /// Optional peer group: enables the gradient allreduce and per-iteration
  /// max-synchronization. All ranks must then run the trainer together.
  const mpi::Comm* comm = nullptr;
  std::size_t gradient_len = 16;  // doubles allreduced per iteration
  /// Per-rank compute-time jitter fraction (OS noise / kernel variance).
  /// Under synchronized SGD every rank waits for the slowest, so jitter is
  /// the dominant weak-scaling loss: E[max of N] grows with N.
  double compute_jitter = 0.0;
  /// Data-parallel global batching (§II-A): all ranks hold the *same* file
  /// list and shuffle it with the same seed; each global batch of
  /// batch_per_rank x nranks files is split into disjoint per-rank slices,
  /// so every sample is visited once per epoch across the job. Requires
  /// `comm`. When false, each rank samples its list independently.
  bool global_shuffle = false;
  /// Registry receiving the "trainer.*" counters and per-epoch/step trace
  /// spans stamp `io_clock` virtual time. nullptr uses the process-global
  /// registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Clairvoyant planning (DESIGN.md §10): `plan` is advanced one entry
  /// per file read (record_access — feeds Belady eviction and the
  /// controller's cursor; must be built with this trainer's exact schedule
  /// parameters). `controller`, when set, is the trainer's one warming
  /// hook: it runs at the top of each iteration, inside the measured I/O
  /// window, so async_io's max(io, compute) hides its virtual-clock
  /// charges up to the compute budget (the Fig. 5b overlap) and the
  /// accounting stays deterministic. Reactive one-batch-ahead warming is
  /// the controller with min_depth == max_depth == batch_per_rank and no
  /// staging.
  plan::AccessPlan* plan = nullptr;
  plan::PrefetchController* controller = nullptr;
  /// When true, TrainerResult::epoch_files records every file this rank
  /// read, per epoch, in read order. Chaos/soak tests gather these across
  /// ranks to assert each epoch observed the full dataset exactly once
  /// even under injected faults.
  bool record_epoch_files = false;
};

struct TrainerResult {
  std::size_t iterations = 0;
  std::size_t files_read = 0;
  std::uint64_t bytes_read = 0;
  double total_s = 0;       // virtual wall time of the whole run
  double io_s = 0;          // summed per-iteration effective I/O time
  double io_visible_s = 0;  // I/O time on the critical path (async hides it)
  double compute_s = 0;
  double items_per_s = 0;   // per-rank throughput (files/sec)
  /// Per-epoch file-read log (only when options.record_epoch_files);
  /// epoch_files[e] is the paths this rank read during epoch e, in order.
  std::vector<std::vector<std::string>> epoch_files;
};

/// Runs the loop over `files` (this rank's view of the dataset; shuffled
/// per epoch with a deterministic seed). Throws on I/O errors.
TrainerResult run_training(posixfs::Vfs& fs, const std::vector<std::string>& files,
                           const TrainerOptions& options);

}  // namespace fanstore::dlsim
