// Schedule-aware prefetch controller (DESIGN.md §10).
//
// Drives the trainer's warming with adaptive lookahead-k:
// each step the controller warms the next k scheduled files, where k is
// chosen so the warm work just fits under the compute budget it can hide
// behind (k ~= step_time * io_parallelism / measured-per-file-warm-cost).
// The per-file cost is an EMA of the virtual-clock time each warm batch
// actually charged; before the first measurement lands the depth is
// min_depth.
//
// Ahead of the warm window it can run cross-rank staging: remote objects
// due within stage_horizon accesses are pulled compressed into the local
// backend (FanStoreFs::prefetch_compressed — no decompress, off the read
// critical path), and the plan's predicted-hottest objects are staged as
// extra local replicas up front, so their fetch cost is paid once, early,
// instead of at first use. With min_depth == max_depth == batch_per_rank,
// no staging and no hot replicas, the controller is the reactive
// one-batch-ahead warmer: each step warms exactly its own batch window.
//
// Warming runs synchronously inside the trainer's measured I/O window
// (enqueue + drain): the virtual clock charges stay attributed to the step
// that issued them, async_io's max(io, compute) hides them up to the
// compute budget — the paper's own overlap model — and runs stay
// deterministic. The controller itself takes no ambient time and draws no
// randomness; everything derives from the plan, the injected clock, and
// the metrics it is handed.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/fanstore_fs.hpp"
#include "obs/metrics.hpp"
#include "plan/access_plan.hpp"
#include "simnet/virtual_clock.hpp"

namespace fanstore::plan {

/// Sink that warms paths into the cache. dlsim::Prefetcher implements this
/// (plan cannot depend on dlsim); tests substitute their own.
class Warmer {
 public:
  virtual ~Warmer() = default;
  /// Queues `paths` for warming (fetch + decompress into the cache).
  virtual void enqueue(const std::vector<std::string>& paths) = 0;
  /// Blocks until everything enqueued so far is warmed (or failed).
  virtual void drain() = 0;
};

struct ControllerOptions {
  /// Compute budget per step the warm work can hide under (the trainer's
  /// t_iter_s).
  double step_time_s = 0.5;
  /// Parallel reader threads being modeled (TrainerOptions::io_parallelism):
  /// the serial virtual-clock warm cost is divided by this, matching the
  /// trainer's own accounting.
  int io_parallelism = 4;
  /// Lookahead-k clamp. min_depth keeps the next batch warm even when the
  /// measured cost says there is no budget at all; max_depth protects the
  /// cache from warm-ahead thrashing (keep it under the cache's file
  /// capacity).
  std::size_t min_depth = 8;
  std::size_t max_depth = 256;
  /// EMA smoothing for the measured per-file warm cost.
  double ema_alpha = 0.3;
  /// How many accesses beyond the warm window to keep *staged*
  /// (compressed blob local, not yet decompressed). 0 disables staging;
  /// 4 * max_depth is the usual clairvoyant setting.
  std::size_t stage_horizon = 0;
  /// Stage local replicas of the plan's N most-accessed objects up front
  /// (predicted-hot placement). 0 disables.
  std::size_t hot_replicas = 0;
};

class PrefetchController {
 public:
  /// `plan`, `fs`, `warmer` and `clock` must outlive the controller.
  /// `clock` is the virtual clock the fs charges; the adaptive depth reads
  /// warm cost from it. Metrics ("plan.*") land in fs.metrics().
  PrefetchController(AccessPlan& plan, core::FanStoreFs& fs, Warmer& warmer,
                     simnet::VirtualClock& clock, ControllerOptions options);

  /// The trainer calls this at the top of each iteration, inside the
  /// measured I/O window: advances staging, then warms up to the adaptive
  /// lookahead target and drains the warmer.
  void on_step_begin();

  /// Last computed lookahead depth (files) — also the "plan.lookahead_depth"
  /// gauge.
  std::size_t current_depth() const { return depth_; }

 private:
  std::size_t adaptive_depth() const;
  void stage_window(std::size_t horizon_end);
  void stage_hot_replicas();

  AccessPlan& plan_;
  core::FanStoreFs& fs_;
  Warmer& warmer_;
  simnet::VirtualClock& clock_;
  ControllerOptions opt_;

  std::size_t warm_until_ = 0;    // schedule index warmed up to (exclusive)
  std::size_t staged_until_ = 0;  // schedule index staged up to (exclusive)
  std::size_t depth_ = 0;
  double est_warm_s_ = 0;  // EMA of measured virtual seconds per warmed file
  bool hot_staged_ = false;

  obs::Gauge* depth_gauge_;
  obs::Counter* issued_;
  obs::Counter* staged_;
  obs::Counter* stage_failures_;
  obs::Counter* replicas_placed_;
};

}  // namespace fanstore::plan
