// Edge resilience against a failing origin: bounded retry with backoff,
// RFC 5861 stale-if-error, negative caching of origin failures, timeout
// budgets, and the per-origin circuit breaker. Fault sequences come from
// the deterministic faults::FaultPlan, so every scenario replays exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cdn/edge.h"
#include "cdn/origin.h"
#include "faults/breaker.h"
#include "faults/plan.h"

namespace jsoncdn::cdn {
namespace {

constexpr char kUrl[] = "https://d/x";

// Mines a seed whose per-request draw sequence for the test origin matches
// `wanted` (one FaultOutcome per successive request ordinal). decide() is a
// pure function, so the search is cheap and the found seed is stable.
std::uint64_t find_seed(const faults::FaultPlanConfig& base,
                        const std::vector<faults::FaultOutcome>& wanted) {
  for (std::uint64_t seed = 1; seed < 200'000; ++seed) {
    faults::FaultPlanConfig config = base;
    config.seed = seed;
    const faults::FaultPlan plan(config);
    bool ok = true;
    for (std::size_t k = 0; k < wanted.size(); ++k) {
      if (plan.decide("d", k, 0.0).outcome != wanted[k]) {
        ok = false;
        break;
      }
    }
    if (ok) return seed;
  }
  ADD_FAILURE() << "no seed found for requested fault sequence";
  return 0;
}

class ResilienceFixture : public ::testing::Test {
 protected:
  void make_edge(const faults::FaultPlanConfig& faults) {
    workload::ObjectSpec obj;
    obj.url = kUrl;
    obj.domain = "d";
    obj.content_type = "application/json";
    obj.cacheable = true;
    obj.ttl_seconds = 60.0;
    obj.body_bytes = 100'000;
    catalog_.add(obj);

    plan_ = std::make_unique<faults::FaultPlan>(faults);
    origin_ = std::make_unique<Origin>(catalog_);
    origin_->set_fault_plan(plan_.get());
    anonymizer_ = std::make_unique<logs::Anonymizer>(9);
    edge_ =
        std::make_unique<EdgeServer>(0, *origin_, *anonymizer_, EdgeParams{});
  }

  static workload::RequestEvent request(double t) {
    workload::RequestEvent ev;
    ev.time = t;
    ev.client_address = "10.0.0.1";
    ev.user_agent = "ua";
    ev.url = kUrl;
    return ev;
  }

  workload::ObjectCatalog catalog_;
  std::unique_ptr<faults::FaultPlan> plan_;
  std::unique_ptr<Origin> origin_;
  std::unique_ptr<logs::Anonymizer> anonymizer_;
  std::unique_ptr<EdgeServer> edge_;
};

TEST_F(ResilienceFixture, RetryRescuesTransientError) {
  faults::FaultPlanConfig base;
  base.enabled = true;
  base.error_rate = 0.5;
  base.seed = find_seed(
      base, {faults::FaultOutcome::kError, faults::FaultOutcome::kOk});
  make_edge(base);

  const auto record = edge_->handle(request(0.0));
  EXPECT_EQ(record.cache_status, logs::CacheStatus::kMiss);
  EXPECT_EQ(record.status, 200);

  const auto& r = edge_->resilience();
  EXPECT_EQ(r.origin_errors, 1u);
  EXPECT_EQ(r.retries, 1u);
  EXPECT_EQ(r.retry_successes, 1u);
  EXPECT_EQ(r.error_responses, 0u);
  EXPECT_GT(r.backoff_seconds, 0.0);
  EXPECT_EQ(edge_->metrics().errors(), 0u);
  // Both attempts hit the origin.
  EXPECT_EQ(origin_->fetch_count(), 2u);
}

TEST_F(ResilienceFixture, StaleIfErrorServesExpiredCopy) {
  faults::FaultPlanConfig base;
  base.enabled = true;
  base.error_rate = 0.5;
  // First request (cache fill) healthy; the refill attempt and both retries
  // fail, exhausting the default budget of 2 retries.
  base.seed = find_seed(
      base, {faults::FaultOutcome::kOk, faults::FaultOutcome::kError,
             faults::FaultOutcome::kError, faults::FaultOutcome::kError});
  make_edge(base);

  const auto first = edge_->handle(request(0.0));
  ASSERT_EQ(first.cache_status, logs::CacheStatus::kMiss);

  // Past TTL with the origin down: the expired copy is served, not the 5xx.
  const auto second = edge_->handle(request(61.0));
  EXPECT_EQ(second.cache_status, logs::CacheStatus::kStale);
  EXPECT_EQ(second.status, 200);
  EXPECT_EQ(second.response_bytes, 100'000u);

  const auto& r = edge_->resilience();
  EXPECT_EQ(r.stale_served, 1u);
  EXPECT_EQ(r.origin_errors, 3u);  // attempt + 2 retries
  EXPECT_EQ(r.error_responses, 0u);
  // Stale counts as a hit: the bytes came from CDN storage.
  EXPECT_EQ(edge_->metrics().hits(), 1u);
}

TEST_F(ResilienceFixture, NegativeCacheShortCircuitsRepeatFailures) {
  faults::FaultPlanConfig base;
  base.enabled = true;
  base.error_rate = 0.5;
  base.seed = find_seed(
      base, {faults::FaultOutcome::kError, faults::FaultOutcome::kError,
             faults::FaultOutcome::kError});
  make_edge(base);

  const auto first = edge_->handle(request(0.0));
  EXPECT_EQ(first.cache_status, logs::CacheStatus::kError);
  EXPECT_GE(first.status, 500);
  EXPECT_EQ(first.response_bytes, 0u);
  const auto fetches_after_first = origin_->fetch_count();
  EXPECT_EQ(fetches_after_first, 3u);  // attempt + 2 retries

  // Within the negative TTL: answered from the remembered failure, origin
  // untouched.
  const auto second = edge_->handle(request(1.0));
  EXPECT_EQ(second.cache_status, logs::CacheStatus::kError);
  EXPECT_EQ(second.status, first.status);
  EXPECT_EQ(origin_->fetch_count(), fetches_after_first);

  const auto& r = edge_->resilience();
  EXPECT_EQ(r.negative_cache_hits, 1u);
  EXPECT_EQ(r.error_responses, 2u);
  EXPECT_EQ(edge_->metrics().errors(), 2u);
}

TEST_F(ResilienceFixture, BreakerOpensAndShortCircuits) {
  using faults::BreakerConfig;
  using faults::RetryConfig;
  faults::FaultPlanConfig base;
  base.enabled = true;
  base.error_rate = 1.0;  // origin is down for good
  base.seed = 7;
  make_edge(base);
  // Each request spends 1 + max_retries attempts (3), so the 5-failure
  // threshold trips on the second request's second attempt, which then
  // stops retrying.
  static_assert(BreakerConfig::failure_threshold == 5 &&
                RetryConfig::max_retries == 2);

  // Each request waits out the previous one's negative-cache entry, so
  // every one reaches the breaker.
  const double gap = ResilienceParams::negative_ttl_seconds;
  for (int i = 0; i < 2; ++i) {
    const auto record = edge_->handle(request(gap * i));
    EXPECT_EQ(record.cache_status, logs::CacheStatus::kError);
  }
  const auto fetches_when_tripped = origin_->fetch_count();
  EXPECT_EQ(fetches_when_tripped, BreakerConfig::failure_threshold);
  EXPECT_EQ(edge_->resilience().breaker_trips, 1u);

  // Open breaker: failed fast, origin untouched.
  const auto shorted = edge_->handle(request(2 * gap));
  EXPECT_EQ(shorted.cache_status, logs::CacheStatus::kError);
  EXPECT_EQ(shorted.status, 503);
  EXPECT_EQ(origin_->fetch_count(), fetches_when_tripped);
  EXPECT_EQ(edge_->resilience().breaker_short_circuits, 1u);

  const auto timeline = edge_->breaker_timeline();
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_EQ(timeline[0].domain, "d");
  EXPECT_EQ(timeline[0].transition.from, faults::BreakerState::kClosed);
  EXPECT_EQ(timeline[0].transition.to, faults::BreakerState::kOpen);
  EXPECT_DOUBLE_EQ(timeline[0].transition.time, gap);
}

TEST_F(ResilienceFixture, TimeoutChargesBudgetNotOriginLatency) {
  faults::FaultPlanConfig base;
  base.enabled = true;
  base.timeout_rate = 1.0;
  base.seed = 7;
  make_edge(base);

  const auto record = edge_->handle(request(0.0));
  EXPECT_EQ(record.status, 504);
  EXPECT_EQ(record.cache_status, logs::CacheStatus::kError);
  // The first attempt and both retries hang.
  static_assert(faults::RetryConfig::max_retries == 2);
  EXPECT_EQ(edge_->resilience().timeouts, 3u);

  const auto& latencies = edge_->metrics().latencies();
  ASSERT_EQ(latencies.size(), 1u);
  // client RTT + the full timeout budget per attempt + the backoff between
  // attempts, not the origin's internal latency.
  const double budget = ResilienceParams::timeout_seconds;
  const double origin_side = budget + faults::backoff_delay(kUrl, 0) +
                             budget + faults::backoff_delay(kUrl, 1) + budget;
  EXPECT_DOUBLE_EQ(latencies[0], EdgeParams::client_rtt_seconds + origin_side);
}

TEST_F(ResilienceFixture, TruncatedBodiesAreRetriedThen502) {
  faults::FaultPlanConfig base;
  base.enabled = true;
  base.truncate_rate = 1.0;
  base.seed = 7;
  make_edge(base);

  const auto record = edge_->handle(request(0.0));
  EXPECT_EQ(record.status, 502);
  EXPECT_EQ(record.cache_status, logs::CacheStatus::kError);
  EXPECT_EQ(edge_->resilience().truncated_bodies, 3u);  // attempt + 2 retries
  EXPECT_EQ(edge_->resilience().retries, 2u);
}

TEST_F(ResilienceFixture, ErrorRecordsKeepDomainAndContentType) {
  faults::FaultPlanConfig base;
  base.enabled = true;
  base.error_rate = 1.0;
  base.seed = 7;
  make_edge(base);

  const auto record = edge_->handle(request(0.0));
  ASSERT_EQ(record.cache_status, logs::CacheStatus::kError);
  // The analyses' JSON filters must still see the failed request.
  EXPECT_EQ(record.domain, "d");
  EXPECT_EQ(record.content_type, "application/json");
}

TEST_F(ResilienceFixture, DisabledPlanTouchesNothing) {
  faults::FaultPlanConfig off;  // enabled == false, rates irrelevant
  off.error_rate = 1.0;
  make_edge(off);

  const auto first = edge_->handle(request(0.0));
  const auto second = edge_->handle(request(1.0));
  EXPECT_EQ(first.cache_status, logs::CacheStatus::kMiss);
  EXPECT_EQ(second.cache_status, logs::CacheStatus::kHit);
  EXPECT_FALSE(edge_->resilience().any_activity());
  EXPECT_TRUE(edge_->breaker_timeline().empty());
  EXPECT_EQ(origin_->faults_injected(), 0u);
}

// ---- CircuitBreaker state machine, driven directly ------------------------

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresOnly) {
  using faults::BreakerConfig;
  faults::CircuitBreaker breaker;

  breaker.record_failure(0.0);
  breaker.record_failure(1.0);
  breaker.record_success(2.0);  // resets the streak
  double t = 3.0;
  for (std::size_t i = 1; i < BreakerConfig::failure_threshold; ++i)
    breaker.record_failure(t++);
  EXPECT_EQ(breaker.state(t), faults::BreakerState::kClosed);
  breaker.record_failure(t);
  EXPECT_EQ(breaker.state(t), faults::BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
}

// Trips `breaker` open at t=0.
void trip(faults::CircuitBreaker& breaker) {
  for (std::size_t i = 0; i < faults::BreakerConfig::failure_threshold; ++i)
    breaker.record_failure(0.0);
}

TEST(CircuitBreakerTest, OpenRefusesUntilCoolingOffThenProbes) {
  // Cooling off for 30 s, then two probe successes close it.
  static_assert(faults::BreakerConfig::open_seconds == 30.0 &&
                faults::BreakerConfig::half_open_successes == 2);
  faults::CircuitBreaker breaker;

  trip(breaker);
  EXPECT_FALSE(breaker.allow(15.0));
  EXPECT_EQ(breaker.state(15.0), faults::BreakerState::kOpen);

  // Cooling-off elapsed: probes allowed, state half-open.
  EXPECT_TRUE(breaker.allow(30.5));
  EXPECT_EQ(breaker.state(30.5), faults::BreakerState::kHalfOpen);

  breaker.record_success(31.0);
  EXPECT_EQ(breaker.state(31.0), faults::BreakerState::kHalfOpen);
  breaker.record_success(31.5);
  EXPECT_EQ(breaker.state(31.5), faults::BreakerState::kClosed);

  const auto& timeline = breaker.timeline();
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline[0].to, faults::BreakerState::kOpen);
  EXPECT_EQ(timeline[1].to, faults::BreakerState::kHalfOpen);
  EXPECT_EQ(timeline[2].to, faults::BreakerState::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopensImmediately) {
  static_assert(faults::BreakerConfig::open_seconds == 30.0);
  faults::CircuitBreaker breaker;

  trip(breaker);
  ASSERT_TRUE(breaker.allow(30.5));  // half-open probe
  breaker.record_failure(31.0);
  EXPECT_EQ(breaker.state(31.0), faults::BreakerState::kOpen);
  EXPECT_FALSE(breaker.allow(31.5));
  EXPECT_EQ(breaker.trips(), 2u);
}

}  // namespace
}  // namespace jsoncdn::cdn
