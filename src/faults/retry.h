// Bounded retry with exponential backoff and deterministic jitter.
//
// The jitter for attempt `a` of request `key` is a pure function of
// (seed, key, a) — derived through stats::rng's splitmix64, never drawn
// from shared RNG state — so the full backoff schedule is identical across
// runs and thread counts, and can be recomputed anywhere for verification.
#pragma once

#include <cstdint>
#include <string_view>

namespace jsoncdn::faults {

// One retry policy for every origin (DESIGN §7).
struct RetryConfig {
  // Re-attempts after the first try.
  static constexpr std::size_t max_retries = 2;
  // Delay before the first retry, growing by `multiplier` per attempt.
  static constexpr double base_delay_seconds = 0.05;
  static constexpr double multiplier = 2.0;
  static constexpr double jitter = 0.5;  // delay *= 1 + jitter * u, u in [0, 1)
  static constexpr std::uint64_t seed = 0;  // jitter stream
};

// Simulated delay inserted before retry number `attempt` (0-based: attempt 0
// is the first retry) of the request identified by `key`.
[[nodiscard]] double backoff_delay(std::string_view key, std::size_t attempt);

}  // namespace jsoncdn::faults
