#include "faults/retry.h"

#include "stats/hash.h"
#include "stats/rng.h"

namespace jsoncdn::faults {

double backoff_delay(std::string_view key, std::size_t attempt) {
  double delay = RetryConfig::base_delay_seconds;
  for (std::size_t a = 0; a < attempt; ++a) delay *= RetryConfig::multiplier;
  const std::uint64_t bits = stats::splitmix64(
      RetryConfig::seed ^ stats::splitmix64(stats::fnv1a64(key) ^
                                            stats::splitmix64(attempt)));
  const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
  return delay * (1.0 + RetryConfig::jitter * u);
}

}  // namespace jsoncdn::faults
