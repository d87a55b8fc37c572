// Multi-period detection (detect_all) — the paper's declared future work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/period_detector.h"
#include "core/periodicity.h"

namespace jsoncdn::core {
namespace {

std::vector<double> comb(double period, std::size_t count, double phase,
                         double jitter, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> times;
  for (std::size_t i = 0; i < count; ++i) {
    times.push_back(phase + period * static_cast<double>(i) +
                    (jitter > 0.0 ? rng.normal(0.0, jitter) : 0.0));
  }
  return times;
}

TEST(DetectAll, SinglePeriodFlowYieldsOneDetection) {
  const auto times = comb(60.0, 40, 0.0, 0.4, 1);
  const auto detector =
      make_period_detector(DetectorStrategy::kAcfFft, DetectorParams{});
  stats::Rng rng(2);
  const auto all = detector->detect_all(times, rng, 4);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_NEAR(all.front().period_seconds, 60.0, 9.0);
}

TEST(DetectAll, FrontMatchesDetect) {
  const auto times = comb(120.0, 40, 3.0, 1.0, 3);
  const auto detector =
      make_period_detector(DetectorStrategy::kAcfFft, DetectorParams{});
  stats::Rng r1(7);
  stats::Rng r2(7);
  const auto all = detector->detect_all(times, r1, 4);
  const auto one = detector->detect(times, r2);
  ASSERT_FALSE(all.empty());
  ASSERT_TRUE(one.periodic);
  EXPECT_DOUBLE_EQ(all.front().period_seconds, one.period_seconds);
}

TEST(DetectAll, FindsTwoInterleavedPeriods) {
  // One device polling at 30 s and uploading telemetry at 300 s on the same
  // object flow: both periods present, neither a multiple of the other's
  // detected value within tolerance... (30 divides 300; pick 70/300 instead
  // so no near-multiple relationship confuses the fold-in rule).
  auto times = comb(70.0, 60, 0.0, 0.3, 4);
  const auto second = comb(300.0, 14, 11.0, 0.3, 5);
  times.insert(times.end(), second.begin(), second.end());
  std::sort(times.begin(), times.end());

  const auto detector =
      make_period_detector(DetectorStrategy::kAcfFft, DetectorParams{});
  stats::Rng rng(6);
  const auto all = detector->detect_all(times, rng, 4);
  ASSERT_GE(all.size(), 1u);
  bool found70 = false;
  for (const auto& det : all) {
    if (std::abs(det.period_seconds - 70.0) <= 10.0) found70 = true;
  }
  EXPECT_TRUE(found70);
  // All reported periods are significant and mutually non-harmonic.
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_TRUE(all[i].periodic);
    EXPECT_GT(all[i].acf_peak_value, all[i].acf_threshold);
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      const double ratio = std::max(all[i].period_seconds,
                                    all[j].period_seconds) /
                           std::min(all[i].period_seconds,
                                    all[j].period_seconds);
      const double nearest = std::round(ratio);
      EXPECT_GT(std::abs(ratio - nearest) / nearest, 0.15)
          << all[i].period_seconds << " vs " << all[j].period_seconds;
    }
  }
}

TEST(DetectAll, HarmonicsAreFoldedIntoTheFundamental) {
  // A clean comb has ACF peaks at every multiple of the period; detect_all
  // must report only the fundamental, not 2T/3T/4T as separate periods.
  const auto times = comb(60.0, 50, 0.0, 0.3, 8);
  const auto detector =
      make_period_detector(DetectorStrategy::kAcfFft, DetectorParams{});
  stats::Rng rng(9);
  const auto all = detector->detect_all(times, rng, 4);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_NEAR(all.front().period_seconds, 60.0, 9.0);
}

TEST(DetectAll, AperiodicFlowYieldsNothing) {
  stats::Rng gen(10);
  std::vector<double> times;
  double t = 0.0;
  for (int i = 0; i < 50; ++i) {
    t += gen.exponential(1.0 / 45.0);
    times.push_back(t);
  }
  const auto detector =
      make_period_detector(DetectorStrategy::kAcfFft, DetectorParams{});
  stats::Rng rng(11);
  EXPECT_TRUE(detector->detect_all(times, rng, 4).empty());
}

TEST(DetectAll, RespectsMaxPeriods) {
  const auto times = comb(60.0, 50, 0.0, 0.3, 12);
  const auto detector =
      make_period_detector(DetectorStrategy::kAcfFft, DetectorParams{});
  stats::Rng rng(13);
  const auto all = detector->detect_all(times, rng, 0);
  EXPECT_TRUE(all.empty());
}

}  // namespace
}  // namespace jsoncdn::core
