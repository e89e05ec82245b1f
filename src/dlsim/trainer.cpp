#include "dlsim/trainer.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"
#include "plan/access_plan.hpp"
#include "plan/controller.hpp"
#include "util/rng.hpp"

namespace fanstore::dlsim {

TrainerResult run_training(posixfs::Vfs& fs, const std::vector<std::string>& files,
                           const TrainerOptions& options) {
  if (options.io_clock == nullptr) {
    throw std::invalid_argument("trainer: io_clock is required");
  }
  if (files.empty()) throw std::invalid_argument("trainer: empty file list");
  if (options.batch_per_rank == 0) {
    throw std::invalid_argument("trainer: batch_per_rank must be positive");
  }

  if (options.global_shuffle && options.comm == nullptr) {
    throw std::invalid_argument("trainer: global_shuffle requires comm");
  }
  obs::MetricsRegistry& metrics = options.metrics != nullptr
                                      ? *options.metrics
                                      : obs::MetricsRegistry::global();
  obs::Counter& files_ctr = metrics.counter("trainer.files_read");
  obs::Counter& bytes_ctr = metrics.counter("trainer.bytes_read");
  obs::Counter& iters_ctr = metrics.counter("trainer.iterations");

  std::vector<std::string> order = files;
  // Global shuffle: every rank must derive the identical permutation, so
  // the RNG is seeded without any rank-dependent input.
  Rng rng(options.seed);
  TrainerResult result;
  std::vector<double> gradient(options.gradient_len, 0.0);
  Bytes buf(1 << 20);

  const int nranks = options.comm != nullptr ? options.comm->size() : 1;
  const int rank = options.comm != nullptr ? options.comm->rank() : 0;
  const std::size_t global_batch =
      options.batch_per_rank * (options.global_shuffle
                                    ? static_cast<std::size_t>(nranks)
                                    : 1);
  const std::size_t iters_per_epoch =
      std::max<std::size_t>(1, files.size() / global_batch);

  // This rank's slice of iteration `it`'s (global) batch window.
  const auto window_of = [&](std::size_t it) {
    return it * global_batch +
           (options.global_shuffle
                ? static_cast<std::size_t>(rank) * options.batch_per_rank
                : 0);
  };

  bool done = false;
  for (int epoch = 0; epoch < options.epochs && !done; ++epoch) {
    obs::TraceSpan epoch_span("trainer.epoch", options.io_clock);
    plan::epoch_shuffle(order, rng);
    if (options.record_epoch_files) result.epoch_files.emplace_back();
    for (std::size_t it = 0; it < iters_per_epoch && !done; ++it) {
      obs::TraceSpan step_span("trainer.step", options.io_clock);
      // ---- I/O phase: read the batch through the POSIX surface ----
      const double io_start = options.io_clock->now_sec();
      // Warming runs *inside* the measured I/O window: its virtual-clock
      // charges land in this iteration's io_serial, where async_io's
      // max(io, compute) hides them up to the compute budget (Fig. 5b) —
      // and the run stays deterministic (no background races against the
      // shared clock).
      if (options.controller != nullptr) options.controller->on_step_begin();
      const std::size_t window = window_of(it);
      for (std::size_t b = 0; b < options.batch_per_rank; ++b) {
        const std::string& path = order[(window + b) % order.size()];
        const int fd = fs.open(path, posixfs::OpenMode::kRead);
        if (fd < 0) {
          throw std::runtime_error("trainer: open failed for " + path + " rc=" +
                                   std::to_string(fd));
        }
        std::int64_t n;
        std::uint64_t file_bytes = 0;
        while ((n = fs.read(fd, MutByteView{buf.data(), buf.size()})) > 0) {
          file_bytes += static_cast<std::uint64_t>(n);
          // "Use" the data so the read cannot be optimized away: fold the
          // first byte into the gradient.
          gradient[b % gradient.size()] += static_cast<double>(buf[0]) * 1e-9;
        }
        if (n < 0) throw std::runtime_error("trainer: read failed for " + path);
        fs.close(fd);
        if (options.plan != nullptr) options.plan->record_access(path);
        if (options.record_epoch_files) result.epoch_files.back().push_back(path);
        result.files_read++;
        result.bytes_read += file_bytes;
        files_ctr.inc();
        bytes_ctr.inc(file_bytes);
      }
      // Parallel readers: the paper divides the serial decompression/read
      // cost by the I/O thread count (§VII-E1).
      const double io_serial = options.io_clock->now_sec() - io_start;
      const double io_time =
          io_serial / std::max(1, options.io_parallelism);

      // ---- Compute phase (+ gradient allreduce across ranks) ----
      if (options.comm != nullptr) {
        gradient = options.comm->allreduce_sum(gradient);
        for (auto& g : gradient) g /= options.comm->size();
      }
      double compute = options.t_iter_s;
      if (options.compute_jitter > 0) {
        // Deterministic per-(rank, iteration) jitter draw.
        Rng jrng(options.seed * 1000003 + result.iterations * 131 +
                 static_cast<std::uint64_t>(rank) * 7919);
        compute *= 1.0 + options.compute_jitter * jrng.next_double();
      }
      double iter_time =
          options.async_io ? std::max(io_time, compute) : io_time + compute;
      // Synchronized SGD: everyone waits for the slowest rank.
      if (options.comm != nullptr) iter_time = options.comm->allreduce_max(iter_time);

      result.total_s += iter_time;
      result.io_s += io_time;
      result.io_visible_s +=
          options.async_io ? std::max(0.0, io_time - options.t_iter_s) : io_time;
      result.compute_s += options.t_iter_s;
      result.iterations++;
      iters_ctr.inc();
      if (options.max_iterations > 0 && result.iterations >= options.max_iterations) {
        done = true;
      }
    }
  }
  result.items_per_s =
      result.total_s > 0
          ? static_cast<double>(result.iterations * options.batch_per_rank) /
                result.total_s
          : 0;
  return result;
}

}  // namespace fanstore::dlsim
