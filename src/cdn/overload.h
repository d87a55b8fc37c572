// Edge overload protection: the admission-control layer a real CDN puts in
// front of its request-processing pipeline, so hostile load (scrapers,
// credential-stuffing bursts, flash crowds) degrades machine-class traffic
// before human-class traffic instead of collapsing everyone's latency.
//
// Three mechanisms, each independently switchable:
//
//   1. Capacity model — the edge has `concurrency` workers; an admitted
//      request waits for the earliest-free worker, and that queueing delay
//      is added to its client-perceived latency. This is what makes a flash
//      crowd *hurt* in the simulation: without it, requests are serviced in
//      zero simulated contention and overload is invisible.
//   2. Bounded admission queue — when more than `queue_limit` admitted
//      requests are still waiting for a worker, new arrivals are rejected
//      outright (SHED, 503) instead of growing the queue without bound.
//   3. Per-client token buckets — each distinct client key (the PR-5
//      interned symbol space keeps the table dense) earns `bucket_rate`
//      requests/second up to a burst of `bucket_burst`; an empty bucket
//      rejects the request (THROTTLED, 429). This is what stops a single
//      scraper or stuffing bot at machine cadence.
//   4. CoDel-style load shedding — when the queueing delay has stayed above
//      `codel_target_seconds` for a full `codel_interval_seconds`, the edge
//      starts shedding machine-class requests (the prioritizer's two-class
//      split: a human is not waiting for machine traffic); human-class
//      requests are shed only past `human_shed_multiplier` times the target.
//
// Every decision is a pure function of the arrival sequence — no wall
// clock, no RNG — so identically-seeded runs replay bit-identically
// regardless of analysis thread counts. With `model_capacity == false` the
// controller is inert and the edge behaves bit-identically to pre-overload
// builds.
#pragma once

#include <cstdint>
#include <deque>
#include <queue>
#include <string_view>
#include <vector>

#include "logs/interner.h"

namespace jsoncdn::cdn {

struct OverloadParams {
  // Master switch for the whole layer (capacity model + protections).
  // Disabled => admit() always admits with zero queue wait and no state.
  bool model_capacity = false;
  // Edge request-processing workers and per-request service floor. The
  // service time charged per request is max(floor, transfer time), so big
  // oversized-JSON bodies occupy a worker for longer.
  std::size_t concurrency = 8;
  double service_floor_seconds = 0.002;

  // Bounded admission queue (mechanism 2). 0 disables the bound.
  std::size_t queue_limit = 0;

  // Per-client token buckets (mechanism 3). rate == 0 disables.
  double bucket_rate = 0.0;   // tokens (requests) per second
  double bucket_burst = 20.0; // bucket capacity

  // CoDel-style shedding (mechanism 4). target == 0 disables.
  double codel_target_seconds = 0.0;
  static constexpr double codel_interval_seconds = 0.5;
  // Human-class traffic is shed only when the queue delay exceeds
  // target * human_shed_multiplier — machine-class sheds first.
  static constexpr double human_shed_multiplier = 4.0;

  // A protected-edge preset used by the conformance overload experiment and
  // the CLI: capacity model plus all three protections.
  [[nodiscard]] static OverloadParams protected_defaults();
  // Capacity model only — queues grow without bound, nothing is rejected.
  // This is the "unprotected" arm of the overload experiment.
  [[nodiscard]] static OverloadParams unprotected_defaults();
};

// Why a request was rejected (or not).
enum class AdmitOutcome {
  kAdmitted,
  kShedQueueFull,   // bounded admission queue overflow      -> SHED
  kShedOverload,    // CoDel queue-delay shedding            -> SHED
  kThrottled,       // per-client token bucket empty         -> THROTTLED
};

struct AdmitDecision {
  AdmitOutcome outcome = AdmitOutcome::kAdmitted;
  // Simulated time the request waits for a worker (admitted requests only);
  // the edge adds this to the client-perceived latency.
  double queue_wait = 0.0;
  [[nodiscard]] bool admitted() const noexcept {
    return outcome == AdmitOutcome::kAdmitted;
  }
};

// The prioritizer's two-class split, decided from the user agent alone:
// browsers and native apps serve a waiting human; libraries, bots, and
// missing/garbage UAs are machine-to-machine. CoDel sheds machine first.
[[nodiscard]] bool machine_class(std::string_view user_agent);

class OverloadController {
 public:
  explicit OverloadController(const OverloadParams& params);

  // Admission decision for a request from `client_key` arriving at `now`.
  // `machine` is the prioritizer's two-class split (machine-to-machine vs
  // human-facing); CoDel sheds machine-class first. Events must arrive in
  // non-decreasing time order (the edge simulator guarantees this).
  [[nodiscard]] AdmitDecision admit(std::string_view client_key, bool machine,
                                    double now);

  // Reports the service time of the request just admitted at `now`: the
  // earliest-free worker is occupied from max(now, its free time) for
  // `service_seconds`. Call exactly once per admitted request.
  void complete(double now, double service_seconds);

  // Current queueing delay a request arriving at `now` would see.
  [[nodiscard]] double queue_delay(double now) const;
  // Admitted requests still waiting for a worker at `now`.
  [[nodiscard]] std::size_t queued(double now);

 private:
  struct TokenBucket {
    double tokens = 0.0;
    double refilled_at = 0.0;
  };

  [[nodiscard]] bool take_token(std::string_view client_key, double now);

  OverloadParams params_;
  // Worker busy-until times, min-heap: top() is the earliest-free worker.
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at_;
  // Start times of admitted-but-not-yet-started requests, in admission
  // order; fronts <= now have started. Size is the live queue length.
  std::deque<double> pending_starts_;
  // CoDel state: when the queue delay first exceeded the target (0 = not
  // currently above target).
  double first_above_at_ = -1.0;
  // Token buckets, dense over interned client symbols.
  logs::StringInterner clients_;
  std::vector<TokenBucket> buckets_;
};

}  // namespace jsoncdn::cdn
