// Determinism properties of the fault-injection + resilience layer, in the
// style of cdn_scheduler_property_test.cpp: whole-workload runs under a
// fixed fault seed must replay byte-for-byte, switching injection off must
// be bit-identical to a build without the layer, and the underlying
// per-request decisions must be pure (thread-schedule-independent).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cdn/network.h"
#include "faults/plan.h"
#include "faults/retry.h"
#include "logs/csv.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace jsoncdn::cdn {
namespace {

faults::FaultPlanConfig faulty_config(std::uint64_t seed, double horizon) {
  faults::FaultPlanConfig config;
  config.enabled = true;
  config.seed = seed;
  config.error_rate = 0.03;
  config.timeout_rate = 0.01;
  config.truncate_rate = 0.005;
  config.latency_spike_rate = 0.01;
  config.outages_per_origin = 1.0;
  config.horizon_seconds = horizon;
  return config;
}

struct RunResult {
  std::string log;  // serialized dataset, the exact bytes a file would hold
  ResilienceMetrics resilience;
  std::vector<BreakerEvent> timeline;
};

RunResult run_network(const workload::GeneratorConfig& wconfig,
                      const NetworkParams& params) {
  workload::WorkloadGenerator generator(wconfig);
  const auto workload = generator.generate();
  CdnNetwork network(generator.catalog().objects(), params);
  const auto dataset = network.run(workload.events);

  RunResult out;
  std::ostringstream log;
  logs::LogWriter writer(log);
  for (std::size_t i = 0; i < dataset.size(); ++i)
    writer.write(dataset.record(static_cast<logs::LogTable::RowIndex>(i)));
  out.log = log.str();
  out.resilience = network.total_resilience();
  out.timeline = network.breaker_timeline();
  return out;
}

double workload_horizon(const workload::GeneratorConfig& wconfig) {
  workload::WorkloadGenerator generator(wconfig);
  const auto workload = generator.generate();
  double horizon = 0.0;
  for (const auto& event : workload.events)
    horizon = std::max(horizon, event.time);
  return horizon + 1.0;
}

TEST(FaultsProperty, FixedSeedReplaysByteForByte) {
  const auto wconfig = workload::short_term_scenario(0.001, 99);
  NetworkParams params;
  params.faults =
      faulty_config(faults::env_fault_seed(1337), workload_horizon(wconfig));

  const auto a = run_network(wconfig, params);
  const auto b = run_network(wconfig, params);

  // The run actually exercised the fault paths — otherwise the equalities
  // below are vacuous.
  ASSERT_TRUE(a.resilience.any_activity());

  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.resilience.origin_errors, b.resilience.origin_errors);
  EXPECT_EQ(a.resilience.timeouts, b.resilience.timeouts);
  EXPECT_EQ(a.resilience.truncated_bodies, b.resilience.truncated_bodies);
  EXPECT_EQ(a.resilience.retries, b.resilience.retries);
  EXPECT_EQ(a.resilience.retry_successes, b.resilience.retry_successes);
  EXPECT_EQ(a.resilience.stale_served, b.resilience.stale_served);
  EXPECT_EQ(a.resilience.negative_cache_hits,
            b.resilience.negative_cache_hits);
  EXPECT_EQ(a.resilience.breaker_short_circuits,
            b.resilience.breaker_short_circuits);
  EXPECT_EQ(a.resilience.breaker_trips, b.resilience.breaker_trips);
  EXPECT_EQ(a.resilience.error_responses, b.resilience.error_responses);
  EXPECT_DOUBLE_EQ(a.resilience.backoff_seconds, b.resilience.backoff_seconds);

  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].edge_id, b.timeline[i].edge_id);
    EXPECT_EQ(a.timeline[i].domain, b.timeline[i].domain);
    EXPECT_DOUBLE_EQ(a.timeline[i].transition.time,
                     b.timeline[i].transition.time);
    EXPECT_EQ(a.timeline[i].transition.from, b.timeline[i].transition.from);
    EXPECT_EQ(a.timeline[i].transition.to, b.timeline[i].transition.to);
  }
}

TEST(FaultsProperty, InjectionOffIsBitIdenticalToNoLayer) {
  const auto wconfig = workload::short_term_scenario(0.001, 99);

  // enabled == false must win over any configured rates: the whole layer is
  // a no-op and output matches a default (fault-free) network exactly.
  NetworkParams disabled;
  disabled.faults = faulty_config(1337, workload_horizon(wconfig));
  disabled.faults.enabled = false;

  const auto plain = run_network(wconfig, NetworkParams{});
  const auto off = run_network(wconfig, disabled);

  EXPECT_EQ(plain.log, off.log);
  EXPECT_FALSE(off.resilience.any_activity());
  EXPECT_TRUE(off.timeline.empty());
}

TEST(FaultsProperty, DecideIsPureUnderConcurrentCallers) {
  const auto config = faulty_config(faults::env_fault_seed(7), 3600.0);
  const faults::FaultPlan plan(config);

  constexpr std::uint64_t kRequests = 2000;
  const std::vector<std::string> origins = {"origin-a", "origin-b",
                                            "origin-c"};

  // Serial reference grid.
  std::vector<std::vector<faults::FaultOutcome>> expected(origins.size());
  for (std::size_t o = 0; o < origins.size(); ++o) {
    for (std::uint64_t k = 0; k < kRequests; ++k) {
      expected[o].push_back(
          plan.decide(origins[o], k, static_cast<double>(k)).outcome);
    }
  }

  // The same grid computed by concurrent threads, one per origin, each
  // racing over the shared plan. decide() is const + pure, so the result
  // must match the serial pass exactly.
  std::vector<std::vector<faults::FaultOutcome>> got(origins.size());
  std::vector<std::thread> threads;
  threads.reserve(origins.size());
  for (std::size_t o = 0; o < origins.size(); ++o) {
    threads.emplace_back([&, o] {
      for (std::uint64_t k = 0; k < kRequests; ++k) {
        got[o].push_back(
            plan.decide(origins[o], k, static_cast<double>(k)).outcome);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(got, expected);
}

TEST(FaultsProperty, BackoffDeterministicAcrossThreadsAndBounded) {
  using faults::RetryConfig;
  std::vector<double> expected;
  for (std::size_t attempt = 0; attempt < 8; ++attempt)
    expected.push_back(faults::backoff_delay("https://d/x", attempt));

  std::vector<std::vector<double>> per_thread(4);
  std::vector<std::thread> threads;
  for (auto& slot : per_thread) {
    threads.emplace_back([&slot] {
      for (std::size_t attempt = 0; attempt < 8; ++attempt)
        slot.push_back(faults::backoff_delay("https://d/x", attempt));
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& slot : per_thread) EXPECT_EQ(slot, expected);

  // Exponential envelope: base * mult^a <= delay < base * mult^a * (1 + j).
  double floor = RetryConfig::base_delay_seconds;
  for (std::size_t attempt = 0; attempt < 8; ++attempt) {
    EXPECT_GE(expected[attempt], floor);
    EXPECT_LT(expected[attempt], floor * (1.0 + RetryConfig::jitter));
    floor *= RetryConfig::multiplier;
  }
}

// Stale-if-error vs negative caching: same origin incident, same seed; the
// stale window decides whether a repeat request inside the negative TTL is
// absorbed (STALE) or failed fast (ERROR). This is the interaction the two
// mechanisms were designed to have: negative caching kills the origin round
// trip, stale-if-error upgrades the response when a usable copy exists.
TEST(FaultsProperty, OutageCountAboveTheMaximumIsRefused) {
  auto config = faulty_config(7, 3600.0);
  const auto max =
      static_cast<double>(faults::FaultPlanConfig::max_outages_per_origin);
  config.outages_per_origin = max;
  const faults::FaultPlan plan(config);
  const auto windows = plan.outages("origin.example");
  EXPECT_FALSE(windows.empty());
  EXPECT_LE(windows.size(), faults::FaultPlanConfig::max_outages_per_origin);
  for (const double bad : {max + 1.0, 9.3e18, -1.0, std::nan("")}) {
    config.outages_per_origin = bad;
    EXPECT_THROW(faults::FaultPlan{config}, std::invalid_argument) << bad;
  }
}

TEST(FaultsProperty, StaleWindowDecidesNegativeCacheResponse) {
  workload::ObjectSpec obj;
  obj.url = "https://d/x";
  obj.domain = "d";
  obj.content_type = "application/json";
  obj.cacheable = true;
  obj.ttl_seconds = 60.0;
  obj.body_bytes = 1000;

  // Mine a seed: fill succeeds, then the origin stays down for the next two
  // retry budgets (k = 1..6) — the stale-serving path does not populate the
  // negative cache, so in the wide-window variant the repeat request
  // contacts the origin again with ordinals 4..6.
  faults::FaultPlanConfig base;
  base.enabled = true;
  base.error_rate = 0.5;
  std::uint64_t seed = 0;
  for (std::uint64_t candidate = 1; candidate < 2'000'000; ++candidate) {
    faults::FaultPlanConfig probe = base;
    probe.seed = candidate;
    const faults::FaultPlan plan(probe);
    bool ok = plan.decide("d", 0, 0.0).outcome == faults::FaultOutcome::kOk;
    for (std::uint64_t k = 1; ok && k <= 6; ++k)
      ok = plan.decide("d", k, 0.0).outcome == faults::FaultOutcome::kError;
    if (ok) {
      seed = candidate;
      break;
    }
  }
  ASSERT_NE(seed, 0u) << "no seed found for the incident sequence";
  base.seed = seed;

  // The incident strikes `staleness` seconds after the copy's TTL ran out.
  const auto run_pair = [&](double staleness) {
    workload::ObjectCatalog catalog;
    catalog.add(obj);
    faults::FaultPlan plan(base);
    Origin origin(catalog);
    origin.set_fault_plan(&plan);
    logs::Anonymizer anonymizer(9);
    EdgeServer edge(0, origin, anonymizer, EdgeParams{});

    workload::RequestEvent ev;
    ev.client_address = "10.0.0.1";
    ev.user_agent = "ua";
    ev.url = obj.url;

    ev.time = 0.0;
    (void)edge.handle(ev);  // fill (MISS)
    ev.time = obj.ttl_seconds + staleness;
    const auto incident = edge.handle(ev);  // TTL expired, origin down
    ev.time += 1.0;  // within the 5 s negative TTL of the incident
    const auto repeat = edge.handle(ev);
    return std::pair{incident.cache_status, repeat.cache_status};
  };

  // Inside the stale window: both the incident and the
  // negative-cache-answered repeat are absorbed as STALE.
  const auto wide = run_pair(1.0);
  EXPECT_EQ(wide.first, logs::CacheStatus::kStale);
  EXPECT_EQ(wide.second, logs::CacheStatus::kStale);

  // Past the stale window: the copy is too old to use, so the incident is
  // an ERROR and the repeat is answered from the negative cache as the same
  // ERROR — without touching the origin again.
  const auto none = run_pair(ResilienceParams::stale_if_error_seconds + 1.0);
  EXPECT_EQ(none.first, logs::CacheStatus::kError);
  EXPECT_EQ(none.second, logs::CacheStatus::kError);
}

}  // namespace
}  // namespace jsoncdn::cdn
