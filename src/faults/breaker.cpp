#include "faults/breaker.h"

namespace jsoncdn::faults {

std::string_view to_string(BreakerState s) noexcept {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "closed";
}

void CircuitBreaker::transition(double now, BreakerState to) {
  timeline_.push_back({now, state_, to});
  state_ = to;
}

bool CircuitBreaker::allow(double now) {
  if (state_ == BreakerState::kOpen) {
    if (now < open_until_) return false;
    transition(now, BreakerState::kHalfOpen);
    half_open_successes_ = 0;
  }
  return true;
}

void CircuitBreaker::record_success(double now) {
  switch (state_) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      break;
    case BreakerState::kHalfOpen:
      if (++half_open_successes_ >= BreakerConfig::half_open_successes) {
        transition(now, BreakerState::kClosed);
        consecutive_failures_ = 0;
      }
      break;
    case BreakerState::kOpen:
      // A success cannot be observed while open (allow() refused the
      // request); tolerate the call for robustness.
      break;
  }
}

void CircuitBreaker::record_failure(double now) {
  switch (state_) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= BreakerConfig::failure_threshold) {
        transition(now, BreakerState::kOpen);
        open_until_ = now + BreakerConfig::open_seconds;
        ++trips_;
      }
      break;
    case BreakerState::kHalfOpen:
      // A failed probe reopens immediately.
      transition(now, BreakerState::kOpen);
      open_until_ = now + BreakerConfig::open_seconds;
      ++trips_;
      break;
    case BreakerState::kOpen:
      break;
  }
}

BreakerState CircuitBreaker::state(double now) const noexcept {
  if (state_ == BreakerState::kOpen && now >= open_until_)
    return BreakerState::kHalfOpen;
  return state_;
}

}  // namespace jsoncdn::faults
