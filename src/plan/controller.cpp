#include "plan/controller.hpp"

#include <algorithm>
#include <stdexcept>

namespace fanstore::plan {

PrefetchController::PrefetchController(AccessPlan& plan, core::FanStoreFs& fs,
                                       Warmer& warmer,
                                       simnet::VirtualClock& clock,
                                       ControllerOptions options)
    : plan_(plan), fs_(fs), warmer_(warmer), clock_(clock), opt_(options) {
  if (opt_.min_depth == 0 || opt_.max_depth < opt_.min_depth) {
    throw std::invalid_argument(
        "controller: need 0 < min_depth <= max_depth");
  }
  if (opt_.io_parallelism < 1) {
    throw std::invalid_argument("controller: io_parallelism must be >= 1");
  }
  if (opt_.ema_alpha <= 0 || opt_.ema_alpha > 1) {
    throw std::invalid_argument("controller: ema_alpha must be in (0, 1]");
  }
  obs::MetricsRegistry& m = fs_.metrics();
  depth_gauge_ = &m.gauge("plan.lookahead_depth");
  issued_ = &m.counter("plan.prefetch_issued");
  staged_ = &m.counter("plan.staged");
  stage_failures_ = &m.counter("plan.stage_failures");
  replicas_placed_ = &m.counter("plan.replicas_placed");
}

std::size_t PrefetchController::adaptive_depth() const {
  // Warm cost is charged serially to the virtual clock but the trainer
  // divides by io_parallelism (§VII-E1), so the hideable budget per step is
  // step_time * io_parallelism of serial charge.
  if (est_warm_s_ <= 0) return opt_.min_depth;  // nothing known: be conservative
  const double budget =
      opt_.step_time_s * static_cast<double>(opt_.io_parallelism);
  const double k = budget / est_warm_s_;
  if (k <= static_cast<double>(opt_.min_depth)) return opt_.min_depth;
  if (k >= static_cast<double>(opt_.max_depth)) return opt_.max_depth;
  return static_cast<std::size_t>(k);
}

void PrefetchController::stage_window(std::size_t horizon_end) {
  for (; staged_until_ < horizon_end; ++staged_until_) {
    // Pull-model staging: ensure the compressed blob is local before it is
    // due. Already-local (or already-decompressed) objects return true
    // immediately, so re-staging after an eviction is cheap.
    if (fs_.prefetch_compressed(plan_.path_at(staged_until_))) {
      staged_->inc();
    } else {
      stage_failures_->inc();
    }
  }
}

void PrefetchController::stage_hot_replicas() {
  hot_staged_ = true;
  if (opt_.hot_replicas == 0) return;
  for (const std::string& path : plan_.hottest(opt_.hot_replicas)) {
    if (fs_.prefetch_compressed(path)) replicas_placed_->inc();
  }
}

void PrefetchController::on_step_begin() {
  if (!hot_staged_) stage_hot_replicas();

  const std::size_t cursor = plan_.position();
  // The cursor never moves backwards; a mispredicted stream can leave
  // warm_until_ behind it, in which case warming restarts at the cursor.
  warm_until_ = std::max(warm_until_, cursor);
  staged_until_ = std::max(staged_until_, warm_until_);

  depth_ = adaptive_depth();
  depth_gauge_->set(static_cast<std::int64_t>(depth_));

  const std::size_t warm_end = std::min(plan_.size(), cursor + depth_);
  if (opt_.stage_horizon != 0) {
    stage_window(std::min(plan_.size(), warm_end + opt_.stage_horizon));
  }

  if (warm_until_ >= warm_end) return;
  std::vector<std::string> batch;
  batch.reserve(warm_end - warm_until_);
  for (; warm_until_ < warm_end; ++warm_until_) {
    batch.push_back(plan_.path_at(warm_until_));
  }
  const double before = clock_.now_sec();
  warmer_.enqueue(batch);
  warmer_.drain();
  issued_->inc(batch.size());
  const double per_file =
      (clock_.now_sec() - before) / static_cast<double>(batch.size());
  est_warm_s_ = est_warm_s_ <= 0 ? per_file
                                 : opt_.ema_alpha * per_file +
                                       (1 - opt_.ema_alpha) * est_warm_s_;
}

}  // namespace fanstore::plan
