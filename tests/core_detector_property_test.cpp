// Property grid for the periodicity detector: recall across dropout levels
// and flow lengths, false-positive control across noise processes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/period_detector.h"
#include "core/periodicity.h"
#include "stats/rng.h"

namespace jsoncdn::core {
namespace {

std::vector<double> planted(double period, std::size_t ticks, double jitter,
                            double dropout, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> times;
  for (std::size_t i = 0; i < ticks; ++i) {
    if (dropout > 0.0 && rng.bernoulli(dropout)) continue;
    times.push_back(period * static_cast<double>(i) +
                    rng.normal(0.0, jitter));
  }
  std::sort(times.begin(), times.end());
  return times;
}

struct GridCase {
  double dropout;
  std::size_t ticks;
};

class DetectorDropoutTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(DetectorDropoutTest, RecallSurvivesDropout) {
  const auto [dropout, ticks] = GetParam();
  const auto detector =
      make_period_detector(DetectorStrategy::kAcfFft, DetectorParams{});
  int detected = 0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    const auto times =
        planted(60.0, ticks, 0.4, dropout, 1000 + static_cast<unsigned>(t));
    if (times.size() < 10) continue;
    stats::Rng rng(2000 + static_cast<unsigned>(t));
    const auto result = detector->detect(times, rng);
    if (result.periodic &&
        std::abs(result.period_seconds - 60.0) <= 60.0 * 0.15) {
      ++detected;
    }
  }
  // Even at 20% dropout the comb structure dominates; expect most trials in.
  EXPECT_GE(detected, trials - 2) << "dropout=" << dropout;
}

INSTANTIATE_TEST_SUITE_P(DropoutGrid, DetectorDropoutTest,
                         ::testing::Values(GridCase{0.0, 30},
                                           GridCase{0.05, 30},
                                           GridCase{0.10, 40},
                                           GridCase{0.20, 50}));

class DetectorNoiseTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectorNoiseTest, BurstyTrafficFlagsBurstRecurrenceScale) {
  // Documented limitation shared with the paper's method: an iid-shuffle
  // null cannot distinguish burst *recurrence* from true periodicity, so
  // on/off traffic is typically flagged. What the detector must NOT do is
  // invent an arbitrary period — when it fires, the period sits at the
  // burst-recurrence scale, never inside a burst.
  stats::Rng gen(GetParam());
  std::vector<double> times;
  double t = 0.0;
  for (int burst = 0; burst < 6; ++burst) {
    const double burst_len = gen.uniform(30.0, 120.0);
    const double end = t + burst_len;
    while (t < end) {
      t += gen.exponential(1.0);
      times.push_back(t);
    }
    t += gen.uniform(200.0, 700.0);  // silence
  }
  const auto detector =
      make_period_detector(DetectorStrategy::kAcfFft, DetectorParams{});
  stats::Rng rng(GetParam() + 99);
  const auto result = detector->detect(times, rng);
  if (result.periodic) {
    EXPECT_GT(result.period_seconds, 150.0) << "seed " << GetParam();
    EXPECT_LT(result.period_seconds, 1200.0) << "seed " << GetParam();
  }
}

TEST_P(DetectorNoiseTest, UniformRandomTimesRejected) {
  stats::Rng gen(GetParam());
  std::vector<double> times;
  for (int i = 0; i < 60; ++i) times.push_back(gen.uniform(0.0, 3600.0));
  std::sort(times.begin(), times.end());
  const auto detector =
      make_period_detector(DetectorStrategy::kAcfFft, DetectorParams{});
  stats::Rng rng(GetParam() + 7);
  EXPECT_FALSE(detector->detect(times, rng).periodic);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorNoiseTest,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(DetectorProperty, PeriodRecoveryScalesWithPeriod) {
  // Relative error stays bounded across two orders of magnitude of period.
  const auto detector =
      make_period_detector(DetectorStrategy::kAcfFft, DetectorParams{});
  for (const double period : {20.0, 60.0, 240.0, 1200.0}) {
    const auto times = planted(period, 40, period * 0.01, 0.02, 77);
    stats::Rng rng(78);
    const auto result = detector->detect(times, rng);
    ASSERT_TRUE(result.periodic) << period;
    EXPECT_NEAR(result.period_seconds, period, period * 0.15) << period;
  }
}

TEST(DetectorProperty, ThresholdsReportedOnDetection) {
  const auto times = planted(60.0, 40, 0.3, 0.0, 5);
  const auto detector =
      make_period_detector(DetectorStrategy::kAcfFft, DetectorParams{});
  stats::Rng rng(6);
  const auto result = detector->detect(times, rng);
  ASSERT_TRUE(result.periodic);
  EXPECT_GT(result.acf_peak_value, result.acf_threshold);
  EXPECT_GT(result.periodogram_power, result.power_threshold);
  EXPECT_GT(result.acf_threshold, 0.0);
}

}  // namespace
}  // namespace jsoncdn::core
