#include "cdn/overload.h"

#include <algorithm>

#include "http/device_db.h"

namespace jsoncdn::cdn {

bool machine_class(std::string_view user_agent) {
  const auto cls = http::classify_device(user_agent);
  return cls.agent != http::AgentKind::kBrowser &&
         cls.agent != http::AgentKind::kNativeApp;
}

OverloadParams OverloadParams::protected_defaults() {
  OverloadParams p;
  p.model_capacity = true;
  p.queue_limit = 64;
  p.bucket_rate = 4.0;
  p.bucket_burst = 24.0;
  p.codel_target_seconds = 0.05;
  return p;
}

OverloadParams OverloadParams::unprotected_defaults() {
  OverloadParams p;
  p.model_capacity = true;
  return p;
}

OverloadController::OverloadController(const OverloadParams& params)
    : params_(params) {
  if (params_.concurrency == 0) params_.concurrency = 1;
}

double OverloadController::queue_delay(double now) const {
  // Workers not in the heap (or whose busy-until already passed) are idle:
  // a new request would start immediately.
  if (free_at_.size() < params_.concurrency) return 0.0;
  return std::max(0.0, free_at_.top() - now);
}

std::size_t OverloadController::queued(double now) {
  while (!pending_starts_.empty() && pending_starts_.front() <= now) {
    pending_starts_.pop_front();
  }
  return pending_starts_.size();
}

bool OverloadController::take_token(std::string_view client_key, double now) {
  const auto symbol = clients_.intern(client_key);
  if (symbol >= buckets_.size()) {
    TokenBucket fresh;
    fresh.tokens = params_.bucket_burst;
    fresh.refilled_at = now;
    buckets_.resize(symbol + 1, fresh);
  }
  auto& bucket = buckets_[symbol];
  bucket.tokens = std::min(
      params_.bucket_burst,
      bucket.tokens + (now - bucket.refilled_at) * params_.bucket_rate);
  bucket.refilled_at = now;
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

AdmitDecision OverloadController::admit(std::string_view client_key,
                                        bool machine, double now) {
  AdmitDecision decision;
  if (!params_.model_capacity) return decision;

  // Rate limiting first: a bot with an empty bucket is rejected even when
  // the edge is idle — fairness, not just congestion control.
  if (params_.bucket_rate > 0.0 && !take_token(client_key, now)) {
    decision.outcome = AdmitOutcome::kThrottled;
    return decision;
  }

  const double wait = queue_delay(now);

  // Bounded admission queue: reject rather than grow the backlog past the
  // limit. Rejected requests never enter the queue.
  if (params_.queue_limit > 0 && queued(now) >= params_.queue_limit) {
    decision.outcome = AdmitOutcome::kShedQueueFull;
    return decision;
  }

  // CoDel-style shedding: only engages after the queue delay has stayed
  // above target for a full interval (transient bursts ride through), and
  // sheds machine-class before human-class.
  if (params_.codel_target_seconds > 0.0) {
    if (wait > params_.codel_target_seconds) {
      if (first_above_at_ < 0.0) first_above_at_ = now;
      const bool sustained =
          now - first_above_at_ >= params_.codel_interval_seconds;
      const bool shed_human =
          wait > params_.codel_target_seconds * params_.human_shed_multiplier;
      if (sustained && (machine || shed_human)) {
        decision.outcome = AdmitOutcome::kShedOverload;
        return decision;
      }
    } else {
      first_above_at_ = -1.0;
    }
  }

  decision.queue_wait = wait;
  return decision;
}

void OverloadController::complete(double now, double service_seconds) {
  if (!params_.model_capacity) return;
  service_seconds = std::max(service_seconds, params_.service_floor_seconds);
  // Idle workers (busy-until in the past) free their heap slot here, so the
  // heap never exceeds `concurrency` entries.
  while (!free_at_.empty() && free_at_.top() <= now) free_at_.pop();
  double start = now;
  if (free_at_.size() >= params_.concurrency) {
    start = std::max(now, free_at_.top());
    free_at_.pop();
  }
  free_at_.push(start + service_seconds);
  if (start > now) pending_starts_.push_back(start);
}

}  // namespace jsoncdn::cdn
