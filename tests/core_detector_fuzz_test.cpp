// Hostile-input properties every strategy in the portfolio must share: the
// validated detect()/detect_all() wrapper rejects garbage deterministically
// (no exceptions, no NaN propagation), degenerate-but-legal inputs don't
// crash, results are reproducible under a fixed rng seed, and the full
// pipeline's labels are identical under 1 and N analysis threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "cdn/network.h"
#include "core/period_detector.h"
#include "core/periodicity.h"
#include "oracle/metamorphic.h"
#include "stats/rng.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace jsoncdn::core {
namespace {

std::vector<double> comb(double period, std::size_t ticks, double jitter,
                         std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> times;
  for (std::size_t i = 0; i < ticks; ++i)
    times.push_back(period * static_cast<double>(i) +
                    (jitter > 0.0 ? rng.normal(0.0, jitter) : 0.0));
  std::sort(times.begin(), times.end());
  return times;
}

DetectorParams fast_params() {
  DetectorParams params;
  params.permutations = 100;
  return params;
}

class StrategyFuzzTest : public ::testing::TestWithParam<DetectorStrategy> {
 protected:
  std::unique_ptr<PeriodDetector> detector_ =
      make_period_detector(GetParam(), fast_params());
};

TEST_P(StrategyFuzzTest, NanTimestampIsRejectedDeterministically) {
  auto times = comb(60.0, 40, 1.0, 3);
  times[7] = std::numeric_limits<double>::quiet_NaN();
  stats::Rng rng(1);
  const auto dets = detector_->detect_all(times, rng, 4);
  EXPECT_TRUE(dets.empty());
  EXPECT_FALSE(detector_->detect(times, rng).periodic);
}

TEST_P(StrategyFuzzTest, InfiniteTimestampIsRejected) {
  auto times = comb(60.0, 40, 1.0, 4);
  times.back() = std::numeric_limits<double>::infinity();
  stats::Rng rng(1);
  EXPECT_TRUE(detector_->detect_all(times, rng, 4).empty());
}

TEST_P(StrategyFuzzTest, NonMonotonicInputIsRejected) {
  auto times = comb(60.0, 40, 1.0, 5);
  std::swap(times[10], times[20]);  // strictly decreasing somewhere
  stats::Rng rng(1);
  EXPECT_TRUE(detector_->detect_all(times, rng, 4).empty());
}

TEST_P(StrategyFuzzTest, DuplicateTimestampsAreLegal) {
  // Coincident requests (same poller fleet, same tick) are real traffic,
  // not corruption: the flow must still be analyzable and reproducible.
  auto times = comb(60.0, 30, 0.5, 6);
  std::vector<double> doubled;
  for (const double t : times) {
    doubled.push_back(t);
    doubled.push_back(t);
  }
  stats::Rng r1(2), r2(2);
  const auto a = detector_->detect_all(doubled, r1, 4);
  const auto b = detector_->detect_all(doubled, r2, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].periodic, b[i].periodic);
    EXPECT_EQ(a[i].period_seconds, b[i].period_seconds);
    EXPECT_TRUE(std::isfinite(a[i].period_seconds));
  }
}

TEST_P(StrategyFuzzTest, ZeroVarianceSignalDoesNotCrash) {
  // One request exactly every second: every bin identical, zero variance
  // end to end. Nothing to detect, nothing to throw.
  std::vector<double> times;
  for (int i = 0; i < 600; ++i) times.push_back(static_cast<double>(i));
  stats::Rng rng(8);
  const auto dets = detector_->detect_all(times, rng, 4);
  for (const auto& det : dets) {
    EXPECT_TRUE(std::isfinite(det.period_seconds));
    EXPECT_GT(det.period_seconds, 0.0);
  }
}

TEST_P(StrategyFuzzTest, TooFewRequestsYieldNothing) {
  const std::vector<double> times = {0.0, 60.0, 120.0, 180.0, 240.0};
  stats::Rng rng(9);
  EXPECT_TRUE(detector_->detect_all(times, rng, 4).empty());
  EXPECT_FALSE(detector_->detect(times, rng).periodic);
}

TEST_P(StrategyFuzzTest, ZeroMaxPeriodsYieldsNothing) {
  const auto times = comb(60.0, 40, 1.0, 10);
  stats::Rng rng(11);
  EXPECT_TRUE(detector_->detect_all(times, rng, 0).empty());
}

TEST_P(StrategyFuzzTest, EmptyInputYieldsNothing) {
  stats::Rng rng(12);
  EXPECT_TRUE(detector_->detect_all({}, rng, 4).empty());
}

TEST_P(StrategyFuzzTest, SameSeedSameVerdictOnNoisyInput) {
  stats::Rng noise(77);
  std::vector<double> times;
  double t = 0.0;
  while (t < 3600.0) {
    t += noise.exponential(1.0 / 40.0);
    times.push_back(t);
  }
  stats::Rng r1(5), r2(5);
  const auto a = detector_->detect_all(times, r1, 4);
  const auto b = detector_->detect_all(times, r2, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].period_seconds, b[i].period_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyFuzzTest,
    ::testing::Values(DetectorStrategy::kAcfFft,
                      DetectorStrategy::kLombScargle,
                      DetectorStrategy::kAutoperiod,
                      DetectorStrategy::kCfdAutoperiod,
                      DetectorStrategy::kMultiPeriod),
    [](const ::testing::TestParamInfo<DetectorStrategy>& info) {
      std::string name(detector_name(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// --- thread invariance across the full pipeline ----------------------------

TEST(StrategyThreadInvariance, LabelsIdenticalUnderOneAndFourThreads) {
  auto wconfig = workload::long_term_scenario(0.001, 21);
  wconfig.duration_seconds = 1800.0;
  wconfig.n_clients = 120;
  wconfig.periodic.embedded = 0.8;
  const workload::WorkloadGenerator generator(wconfig);
  const auto workload = generator.generate();
  cdn::CdnNetwork network(generator.catalog().objects(),
                          cdn::NetworkParams{});
  const auto edge_log = network.run(workload.events);
  const auto json_rows = edge_log.json_rows();
  const logs::TableView json(edge_log, json_rows);
  ASSERT_GT(json.size(), 100u);

  for (const auto& info : detector_registry()) {
    PeriodicityConfig one;
    one.strategy = info.strategy;
    one.threads = 1;
    PeriodicityConfig four = one;
    four.threads = 4;
    const auto labels_one =
        oracle::detection_labels(analyze_periodicity(json, one));
    const auto labels_four =
        oracle::detection_labels(analyze_periodicity(json, four));
    EXPECT_TRUE(oracle::labels_equivalent(labels_one, labels_four))
        << "strategy " << info.name << " is thread-count sensitive";
  }
}

}  // namespace
}  // namespace jsoncdn::core
