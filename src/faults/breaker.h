// Per-origin circuit breaker: the standard closed / open / half-open state
// machine CDN edges run in front of failing origins. Consecutive failures
// trip the breaker; while open, requests are short-circuited (served stale
// or failed fast) without touching the origin; after a cooling-off period a
// limited number of probe requests decide whether to close it again.
//
// The machine is driven entirely by the caller's simulation clock — no wall
// time — so breaker state timelines replay bit-identically.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace jsoncdn::faults {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

[[nodiscard]] std::string_view to_string(BreakerState s) noexcept;

// One breaker policy for every origin (DESIGN §7).
struct BreakerConfig {
  // Consecutive failures that trip it.
  static constexpr std::size_t failure_threshold = 5;
  static constexpr double open_seconds = 30.0;  // cooling-off before probing
  // Probe successes needed to close.
  static constexpr std::size_t half_open_successes = 2;
};

struct BreakerTransition {
  double time = 0.0;
  BreakerState from = BreakerState::kClosed;
  BreakerState to = BreakerState::kClosed;
};

class CircuitBreaker {
 public:
  // May a request be sent to the protected origin at `now`? Records the
  // open -> half-open transition when the cooling-off period has lapsed.
  [[nodiscard]] bool allow(double now);

  void record_success(double now);
  void record_failure(double now);

  // State at `now` without side effects (an elapsed open period reads as
  // half-open even before allow() observes it).
  [[nodiscard]] BreakerState state(double now) const noexcept;

  [[nodiscard]] std::uint64_t trips() const noexcept { return trips_; }
  [[nodiscard]] const std::vector<BreakerTransition>& timeline()
      const noexcept {
    return timeline_;
  }

 private:
  void transition(double now, BreakerState to);

  BreakerState state_ = BreakerState::kClosed;
  std::size_t consecutive_failures_ = 0;
  std::size_t half_open_successes_ = 0;
  double open_until_ = 0.0;
  std::uint64_t trips_ = 0;
  std::vector<BreakerTransition> timeline_;
};

}  // namespace jsoncdn::faults
