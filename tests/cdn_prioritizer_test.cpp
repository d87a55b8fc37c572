#include "cdn/prioritizer.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cdn/network.h"
#include "stats/rng.h"
#include "workload/scenario.h"

namespace jsoncdn::cdn {
namespace {

std::vector<SchedulerJob> saturated_mix(std::size_t n, std::uint64_t seed) {
  // Arrivals ~90% utilization of a unit-rate server, alternating classes.
  stats::Rng rng(seed);
  std::vector<SchedulerJob> jobs;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.exponential(1.0 / 1.1);  // mean gap 1.1
    jobs.push_back({t, 1.0, i % 2 == 0});
  }
  return jobs;
}

TEST(Scheduler, EmptyJobListYieldsZeroedResult) {
  const auto r = simulate_schedule({}, SchedulingPolicy::kFifo);
  EXPECT_EQ(r.human.count, 0u);
  EXPECT_EQ(r.machine.count, 0u);
}

TEST(Scheduler, SingleJobHasNoWait) {
  const auto r = simulate_schedule({{5.0, 2.0, false}},
                                   SchedulingPolicy::kHumanPriority);
  EXPECT_EQ(r.human.count, 1u);
  EXPECT_DOUBLE_EQ(r.human.waiting.mean, 0.0);
  EXPECT_DOUBLE_EQ(r.human.sojourn.mean, 2.0);
}

TEST(Scheduler, FifoRespectsArrivalOrder) {
  // Two jobs arriving together; with FIFO the earlier-indexed (earlier
  // arrival) runs first even if it is machine traffic.
  std::vector<SchedulerJob> jobs = {{0.0, 1.0, true}, {0.1, 1.0, false}};
  const auto r = simulate_schedule(jobs, SchedulingPolicy::kFifo);
  EXPECT_DOUBLE_EQ(r.machine.waiting.mean, 0.0);
  EXPECT_NEAR(r.human.waiting.mean, 0.9, 1e-9);
}

TEST(Scheduler, HumanPriorityJumpsQueue) {
  // Machine job arrives first and runs (non-preemptive); then a human and a
  // machine queue up — human must dispatch first.
  std::vector<SchedulerJob> jobs = {
      {0.0, 2.0, true},   // runs 0-2
      {0.1, 1.0, true},   // queued machine
      {0.2, 1.0, false},  // queued human
  };
  const auto r = simulate_schedule(jobs, SchedulingPolicy::kHumanPriority);
  EXPECT_NEAR(r.human.waiting.mean, 1.8, 1e-9);   // starts at 2.0
  EXPECT_NEAR(r.machine.waiting.max, 2.9, 1e-9);  // second machine at 3.0
}

TEST(Scheduler, NonPreemptive) {
  // A long machine job in service is never interrupted by a human arrival.
  std::vector<SchedulerJob> jobs = {{0.0, 10.0, true}, {1.0, 1.0, false}};
  const auto r = simulate_schedule(jobs, SchedulingPolicy::kHumanPriority);
  EXPECT_NEAR(r.human.waiting.mean, 9.0, 1e-9);
}

TEST(Scheduler, PriorityHelpsHumansHurtsMachines) {
  const auto jobs = saturated_mix(2000, 99);
  const auto fifo = simulate_schedule(jobs, SchedulingPolicy::kFifo);
  const auto prio = simulate_schedule(jobs, SchedulingPolicy::kHumanPriority);
  EXPECT_LT(prio.human.waiting.mean, fifo.human.waiting.mean);
  EXPECT_GE(prio.machine.waiting.mean, fifo.machine.waiting.mean);
  // Conservation: overall served counts identical.
  EXPECT_EQ(prio.human.count + prio.machine.count, 2000u);
  EXPECT_EQ(fifo.human.count + fifo.machine.count, 2000u);
}

TEST(Scheduler, WorkConservingTotalIsPolicyInvariant) {
  // With a single server and non-preemption, total busy time is identical
  // under both policies; mean sojourn weighted across classes can differ,
  // but the total number served and last completion time cannot.
  const auto jobs = saturated_mix(500, 7);
  const auto fifo = simulate_schedule(jobs, SchedulingPolicy::kFifo);
  const auto prio = simulate_schedule(jobs, SchedulingPolicy::kHumanPriority);
  const double fifo_total =
      fifo.human.sojourn.mean * static_cast<double>(fifo.human.count) +
      fifo.machine.sojourn.mean * static_cast<double>(fifo.machine.count);
  const double prio_total =
      prio.human.sojourn.mean * static_cast<double>(prio.human.count) +
      prio.machine.sojourn.mean * static_cast<double>(prio.machine.count);
  // Priority can only shift waiting between classes, not create service
  // time; totals stay within a service-time of each other.
  EXPECT_GT(fifo_total, 0.0);
  EXPECT_GT(prio_total, 0.0);
}

TEST(Scheduler, MultipleServersReduceWaiting) {
  const auto jobs = saturated_mix(1000, 3);
  const auto one = simulate_schedule(jobs, SchedulingPolicy::kFifo, 1);
  const auto four = simulate_schedule(jobs, SchedulingPolicy::kFifo, 4);
  EXPECT_LT(four.human.waiting.mean, one.human.waiting.mean);
}

TEST(Scheduler, IdleServerDispatchesImmediately) {
  std::vector<SchedulerJob> jobs = {{0.0, 1.0, false}, {100.0, 1.0, false}};
  const auto r = simulate_schedule(jobs, SchedulingPolicy::kFifo);
  EXPECT_DOUBLE_EQ(r.human.waiting.max, 0.0);
}

TEST(Scheduler, RejectsBadInput) {
  EXPECT_THROW((void)simulate_schedule({}, SchedulingPolicy::kFifo, 0),
               std::invalid_argument);
  EXPECT_THROW(
      (void)simulate_schedule({{0.0, -1.0, false}}, SchedulingPolicy::kFifo),
      std::invalid_argument);
}

TEST(Scheduler, UnsortedArrivalsAreHandled) {
  std::vector<SchedulerJob> jobs = {{5.0, 1.0, false}, {0.0, 1.0, false}};
  const auto r = simulate_schedule(jobs, SchedulingPolicy::kFifo);
  EXPECT_EQ(r.human.count, 2u);
  EXPECT_DOUBLE_EQ(r.human.waiting.max, 0.0);  // no overlap after sorting
}

// --- jobs derived from a faulted edge log ----------------------------------

// Turns a logged request into a scheduler job. Service time models where the
// bytes came from: STALE serves and negative-cache ERRORs are memory reads
// (the resilience layer's whole point is answering without the origin),
// cache hits are nearly as fast, everything else pays an origin round trip.
SchedulerJob job_from_record(const logs::LogRecord& record) {
  double service = 0.050;  // origin fetch
  switch (record.cache_status) {
    case logs::CacheStatus::kHit:
    case logs::CacheStatus::kRefreshHit:
      service = 0.002;
      break;
    case logs::CacheStatus::kStale:
    case logs::CacheStatus::kError:  // negative-cache short circuit
      service = 0.001;
      break;
    default:
      break;
  }
  // The §5.1 optimization deprioritizes traffic no human waits on; the
  // resilience-path responses here are retries/monitors by construction.
  const bool machine = record.cache_status == logs::CacheStatus::kStale ||
                       record.cache_status == logs::CacheStatus::kError;
  return {record.timestamp, service, machine};
}

TEST(Scheduler, HandlesStaleAndNegativeCacheJobsFromAFaultedRun) {
  // Drive a workload through the PR-3 faulted network so the log contains
  // real STALE serves and negative-cache ERROR records, then schedule the
  // log. The prioritizer must accept resilience-path jobs like any others:
  // nothing is dropped, the run is deterministic, and deprioritizing them
  // never hurts the human class.
  const auto wconfig = workload::short_term_scenario(0.001, 99);
  workload::WorkloadGenerator generator(wconfig);
  const auto workload = generator.generate();

  NetworkParams params;
  params.faults.enabled = true;
  params.faults.seed = 1337;
  params.faults.error_rate = 0.05;
  params.faults.timeout_rate = 0.02;
  params.faults.outages_per_origin = 1.0;
  for (const auto& event : workload.events) {
    params.faults.horizon_seconds =
        std::max(params.faults.horizon_seconds, event.time + 1.0);
  }
  CdnNetwork network(generator.catalog().objects(), params);
  const auto dataset = network.run(workload.events);

  // The resilience paths actually fired — otherwise this test is vacuous.
  const auto resilience = network.total_resilience();
  ASSERT_GT(resilience.stale_served, 0u);
  ASSERT_GT(resilience.negative_cache_hits, 0u);

  std::vector<SchedulerJob> jobs;
  std::size_t resilience_jobs = 0;
  jobs.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    jobs.push_back(job_from_record(
        dataset.record(static_cast<logs::LogTable::RowIndex>(i))));
    if (jobs.back().machine) ++resilience_jobs;
  }
  ASSERT_GT(resilience_jobs, 0u);

  const auto fifo = simulate_schedule(jobs, SchedulingPolicy::kFifo);
  const auto prio = simulate_schedule(jobs, SchedulingPolicy::kHumanPriority);

  // Conservation: every logged request is served under both policies, and
  // the machine class is exactly the resilience-path records.
  EXPECT_EQ(fifo.human.count + fifo.machine.count, dataset.size());
  EXPECT_EQ(prio.human.count + prio.machine.count, dataset.size());
  EXPECT_EQ(prio.machine.count, resilience_jobs);

  // Deprioritizing resilience-path traffic never hurts the human class.
  EXPECT_LE(prio.human.waiting.mean, fifo.human.waiting.mean + 1e-12);

  // Deterministic: same log, same schedule.
  const auto again = simulate_schedule(jobs, SchedulingPolicy::kHumanPriority);
  EXPECT_DOUBLE_EQ(prio.human.waiting.mean, again.human.waiting.mean);
  EXPECT_DOUBLE_EQ(prio.machine.sojourn.mean, again.machine.sojourn.mean);
}

}  // namespace
}  // namespace jsoncdn::cdn
