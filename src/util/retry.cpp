#include "util/retry.hpp"

#include "util/rng.hpp"

namespace fanstore {

void RetryPolicy::validate() const {
  if (max_attempts < 1) {
    throw std::invalid_argument("RetryPolicy: max_attempts must be >= 1");
  }
  if (base_delay_ms < 0 || max_delay_ms < 0) {
    throw std::invalid_argument("RetryPolicy: delays must be non-negative");
  }
  if (max_delay_ms < base_delay_ms) {
    throw std::invalid_argument("RetryPolicy: max_delay_ms < base_delay_ms");
  }
  if (jitter < 0.0 || jitter > 1.0) {
    throw std::invalid_argument("RetryPolicy: jitter must be in [0, 1]");
  }
}

int RetryPolicy::delay_ms(int attempt, std::uint64_t salt) const {
  if (base_delay_ms <= 0) return 0;
  if (attempt < 1) attempt = 1;
  // Exponential growth, capped before jitter so the cap is a hard bound.
  std::int64_t delay = base_delay_ms;
  for (int i = 1; i < attempt && delay < max_delay_ms; ++i) delay *= 2;
  if (delay > max_delay_ms) delay = max_delay_ms;
  if (jitter <= 0.0) return static_cast<int>(delay);
  std::uint64_t s = seed ^ (salt * 0x9E3779B97F4A7C15ull) ^
                    (static_cast<std::uint64_t>(attempt) << 32);
  const double u = static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
  const double lo = static_cast<double>(delay) * (1.0 - jitter);
  return static_cast<int>(lo + (static_cast<double>(delay) - lo) * u);
}

}  // namespace fanstore
