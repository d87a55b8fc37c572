#include "faults/plan.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "stats/hash.h"

namespace jsoncdn::faults {

namespace {

// Unit-interval double from well-mixed bits (same construction the standard
// library uses for generate_canonical on 53 bits).
constexpr double to_unit(std::uint64_t x) noexcept {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// Draw chain for one (seed, origin, ordinal) triple: successive draws step
// the splitmix64 sequence from a well-mixed starting point.
struct DrawChain {
  std::uint64_t state;
  double next() {
    state = stats::splitmix64(state);
    return to_unit(state);
  }
};

constexpr std::uint64_t kOutageStreamKey = 0x6f757467;  // "outg"

bool window_covers(const std::vector<OutageWindow>& windows, double now) {
  for (const auto& w : windows) {
    if (now < w.start) return false;
    if (now < w.end) return true;
  }
  return false;
}

}  // namespace

std::string_view to_string(FaultOutcome o) noexcept {
  switch (o) {
    case FaultOutcome::kOk: return "ok";
    case FaultOutcome::kError: return "error";
    case FaultOutcome::kTimeout: return "timeout";
    case FaultOutcome::kTruncated: return "truncated";
  }
  return "ok";
}

std::uint64_t env_fault_seed(std::uint64_t fallback) noexcept {
  const char* env = std::getenv("JSONCDN_FAULT_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

FaultPlanConfig composite_fault_plan(
    double rate, std::uint64_t seed, double outages_per_origin,
    const std::vector<workload::RequestEvent>& events) {
  FaultPlanConfig config;
  config.enabled = true;
  config.seed = seed;
  config.error_rate = 0.6 * rate;
  config.timeout_rate = 0.2 * rate;
  config.truncate_rate = 0.1 * rate;
  config.latency_spike_rate = 0.1 * rate;
  config.outages_per_origin = outages_per_origin;
  double last_event = 0.0;
  for (const auto& event : events)
    last_event = std::max(last_event, event.time);
  config.horizon_seconds = last_event + 1.0;
  return config;
}

FaultPlan::FaultPlan(const FaultPlanConfig& config) : config_(config) {
  const double total = config.error_rate + config.timeout_rate +
                       config.truncate_rate + config.latency_spike_rate;
  if (config.error_rate < 0.0 || config.timeout_rate < 0.0 ||
      config.truncate_rate < 0.0 || config.latency_spike_rate < 0.0 ||
      total > 1.0) {
    throw std::invalid_argument(
        "FaultPlan: rates must be in [0,1] and sum <= 1");
  }
  constexpr auto max_outages =
      static_cast<double>(FaultPlanConfig::max_outages_per_origin);
  if (config.horizon_seconds < 0.0 ||
      !(config.outages_per_origin >= 0.0 &&
        config.outages_per_origin <= max_outages))
    throw std::invalid_argument("FaultPlan: bad outage parameters");
}

FaultDecision FaultPlan::draw(std::string_view origin_key,
                              std::uint64_t k) const {
  FaultDecision decision;
  DrawChain chain{stats::splitmix64(
      config_.seed ^ stats::splitmix64(stats::fnv1a64(origin_key) ^
                                       stats::splitmix64(k)))};
  const double u = chain.next();
  double threshold = config_.timeout_rate;
  if (u < threshold) {
    decision.outcome = FaultOutcome::kTimeout;
    decision.status = 504;
    return decision;
  }
  threshold += config_.error_rate;
  if (u < threshold) {
    decision.outcome = FaultOutcome::kError;
    // Mix of the 5xx statuses an unhealthy origin actually emits.
    const double pick = chain.next();
    decision.status = pick < 0.5 ? 503 : (pick < 0.8 ? 500 : 502);
    return decision;
  }
  threshold += config_.truncate_rate;
  if (u < threshold) {
    decision.outcome = FaultOutcome::kTruncated;
    return decision;
  }
  threshold += config_.latency_spike_rate;
  if (u < threshold) {
    // Spike in [multiplier/2, multiplier): slow, not hung.
    decision.latency_multiplier =
        config_.latency_spike_multiplier * (0.5 + 0.5 * chain.next());
  }
  return decision;
}

FaultDecision FaultPlan::decide(std::string_view origin_key, std::uint64_t k,
                                double now) const {
  if (!config_.enabled) return {};
  if (window_covers(outages(origin_key), now)) {
    FaultDecision decision;
    decision.outcome = FaultOutcome::kError;
    decision.status = 503;
    decision.outage = true;
    return decision;
  }
  return draw(origin_key, k);
}

FaultDecision FaultPlan::next(std::string_view origin_key, double now) {
  if (!config_.enabled) return {};
  auto& state = origins_[std::string(origin_key)];
  if (!state.windows_computed) {
    state.windows = outages(origin_key);
    state.windows_computed = true;
  }
  const auto ordinal = state.ordinal++;
  if (window_covers(state.windows, now)) {
    FaultDecision decision;
    decision.outcome = FaultOutcome::kError;
    decision.status = 503;
    decision.outage = true;
    return decision;
  }
  return draw(origin_key, ordinal);
}

std::vector<OutageWindow> FaultPlan::outages(
    std::string_view origin_key) const {
  std::vector<OutageWindow> windows;
  if (!config_.enabled || config_.horizon_seconds <= 0.0 ||
      config_.outages_per_origin <= 0.0) {
    return windows;
  }
  // One independent stream per origin, derived from (seed, origin) only —
  // stable no matter how many requests the origin has seen.
  stats::Rng rng = stats::Rng(config_.seed)
                       .fork(kOutageStreamKey)
                       .fork(stats::fnv1a64(origin_key));
  // Expected count with the fractional part resolved by a Bernoulli draw,
  // so e.g. 1.25 outages/origin gives some origins 1 window and some 2.
  const auto base = static_cast<std::int64_t>(config_.outages_per_origin);
  const double fraction =
      config_.outages_per_origin - static_cast<double>(base);
  const std::int64_t count = base + (rng.bernoulli(fraction) ? 1 : 0);
  for (std::int64_t i = 0; i < count; ++i) {
    OutageWindow w;
    w.start = rng.uniform(0.0, config_.horizon_seconds);
    w.end = w.start + rng.exponential(1.0 / config_.mean_outage_seconds);
    windows.push_back(w);
  }
  std::sort(windows.begin(), windows.end(),
            [](const OutageWindow& a, const OutageWindow& b) {
              return a.start < b.start;
            });
  // Coalesce overlaps so the in-window check is a simple interval scan.
  std::vector<OutageWindow> merged;
  for (const auto& w : windows) {
    if (!merged.empty() && w.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, w.end);
    } else {
      merged.push_back(w);
    }
  }
  return merged;
}

bool FaultPlan::in_outage(std::string_view origin_key, double now) const {
  return window_covers(outages(origin_key), now);
}

}  // namespace jsoncdn::faults
