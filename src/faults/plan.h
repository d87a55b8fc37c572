// Deterministic fault-injection plan for the edge<->origin path.
//
// Production edge logs — the paper's raw material — are full of origin
// errors, timeouts, and partial responses; a characterization pipeline that
// has only ever seen status-200 records is untested against the traffic it
// claims to handle. FaultPlan schedules per-origin failures (error bursts,
// latency spikes, hung connections, truncated bodies, whole-origin outage
// windows) as a *pure function* of (seed, origin, request ordinal, time):
// every decision is derived through stats::rng's splitmix64 chain, never
// from shared mutable RNG state, so a run is bit-reproducible regardless of
// how calls interleave and two runs with the same seed produce identical
// fault sequences.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "stats/rng.h"
#include "workload/sessions.h"

namespace jsoncdn::faults {

// What the injected origin does with one request.
enum class FaultOutcome {
  kOk,         // healthy response (possibly with a latency spike)
  kError,      // immediate 5xx (500/502/503)
  kTimeout,    // connection hangs; the edge gives up at its timeout budget
  kTruncated,  // 200 with a partial body — unusable, treated as a failure
};

[[nodiscard]] std::string_view to_string(FaultOutcome o) noexcept;

struct FaultDecision {
  FaultOutcome outcome = FaultOutcome::kOk;
  int status = 200;                 // 5xx for kError; 200 otherwise
  double latency_multiplier = 1.0;  // >1 on a latency spike (kOk only)
  bool outage = false;              // decision forced by an outage window
};

// One scheduled whole-origin outage: every request in [start, end) fails
// with 503 regardless of the per-request draws.
struct OutageWindow {
  double start = 0.0;
  double end = 0.0;
};

struct FaultPlanConfig {
  bool enabled = false;      // master switch: disabled => every decision kOk
  std::uint64_t seed = 0;    // all randomness derives from this

  // Per-request probabilities, evaluated independently per origin request.
  double error_rate = 0.0;          // immediate 5xx
  double timeout_rate = 0.0;        // hung connection
  double truncate_rate = 0.0;       // partial body
  double latency_spike_rate = 0.0;  // slow-but-correct response
  static constexpr double latency_spike_multiplier = 8.0;

  // Scheduled outages: each origin draws a Poisson-like number of windows
  // over [0, horizon_seconds) with exponential durations. horizon == 0 or
  // outages_per_origin == 0 disables outage scheduling. More than
  // max_outages_per_origin windows (at 60 s each, over 16 hours per origin)
  // is refused: every origin draws its windows up front.
  double horizon_seconds = 0.0;
  double outages_per_origin = 0.0;
  static constexpr double mean_outage_seconds = 60.0;
  static constexpr std::size_t max_outages_per_origin = 1000;
};

// The plan jsoncdn-generate's --fault-rate and the benches run: one
// per-request `rate` split across the fault kinds in rough proportion to
// real origin incidents (60% 5xx, 20% hangs, 10% partial bodies, 10%
// slowdowns), and `outages_per_origin` windows scheduled up to 1 s past the
// last of `events`.
[[nodiscard]] FaultPlanConfig composite_fault_plan(
    double rate, std::uint64_t seed, double outages_per_origin,
    const std::vector<workload::RequestEvent>& events);

// Reads JSONCDN_FAULT_SEED from the environment (the CI fault matrix sets
// it); returns `fallback` when unset or unparsable.
[[nodiscard]] std::uint64_t env_fault_seed(std::uint64_t fallback) noexcept;

class FaultPlan {
 public:
  FaultPlan() = default;  // disabled plan: decide() always returns kOk
  explicit FaultPlan(const FaultPlanConfig& config);

  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }

  // Decision for the k-th request ever sent to `origin_key`, arriving at
  // simulation time `now`. Pure: depends only on (seed, origin_key, k, now),
  // so it is safe to call concurrently and replays identically.
  [[nodiscard]] FaultDecision decide(std::string_view origin_key,
                                     std::uint64_t k, double now) const;

  // Stateful convenience for the serial simulator: tracks the per-origin
  // request ordinal internally and forwards to decide().
  FaultDecision next(std::string_view origin_key, double now);

  // The outage windows scheduled for one origin (sorted, non-overlapping).
  [[nodiscard]] std::vector<OutageWindow> outages(
      std::string_view origin_key) const;
  [[nodiscard]] bool in_outage(std::string_view origin_key,
                               double now) const;

 private:
  // Per-request draw only — no outage check. decide()/next() layer the
  // outage windows on top.
  [[nodiscard]] FaultDecision draw(std::string_view origin_key,
                                   std::uint64_t k) const;

  struct OriginState {
    std::uint64_t ordinal = 0;
    bool windows_computed = false;
    std::vector<OutageWindow> windows;
  };

  FaultPlanConfig config_;
  std::unordered_map<std::string, OriginState> origins_;
};

}  // namespace jsoncdn::faults
