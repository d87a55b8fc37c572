// The detector portfolio: registry round-trips, each alternative strategy's
// recall on the regime it exists for, and the strategy-routed check_period
// second pass changing its verdict where the binned default goes blind. The
// default strategy's output is pinned to the bit by PeriodicityGolden.
#include "core/period_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/anomaly.h"
#include "core/periodicity.h"
#include "stats/rng.h"

namespace jsoncdn::core {
namespace {

std::vector<double> comb(double period, std::size_t ticks, double jitter,
                         std::uint64_t seed, double t0 = 0.0) {
  stats::Rng rng(seed);
  std::vector<double> times;
  for (std::size_t i = 0; i < ticks; ++i) {
    double t = t0 + period * static_cast<double>(i);
    if (jitter > 0.0) t += rng.normal(0.0, jitter);
    times.push_back(t);
  }
  std::sort(times.begin(), times.end());
  return times;
}

DetectorParams fast_params() {
  DetectorParams params;
  params.permutations = 100;
  return params;
}

// --- registry -------------------------------------------------------------

TEST(DetectorRegistry, NamesRoundTripThroughFactory) {
  const auto& registry = detector_registry();
  ASSERT_EQ(registry.size(), 5u);
  for (const auto& info : registry) {
    EXPECT_EQ(detector_strategy_from_name(info.name), info.strategy);
    EXPECT_EQ(detector_name(info.strategy), info.name);
    const auto detector = make_period_detector(info.strategy, fast_params());
    ASSERT_NE(detector, nullptr);
    EXPECT_EQ(detector->name(), info.name);
    EXPECT_GE(detector->max_detections(), 1u);
  }
}

TEST(DetectorRegistry, UnknownNameThrows) {
  EXPECT_THROW((void)detector_strategy_from_name("fourier-magic"),
               std::invalid_argument);
}

TEST(DetectorRegistry, DefaultStrategyIsSinglePeriod) {
  const auto acf = make_period_detector(DetectorStrategy::kAcfFft,
                                        fast_params());
  EXPECT_EQ(acf->max_detections(), 1u);
  const auto multi = make_period_detector(DetectorStrategy::kMultiPeriod,
                                          fast_params());
  EXPECT_GT(multi->max_detections(), 1u);
}

// --- per-strategy recall on its home regime --------------------------------

TEST(DetectorPortfolio, EveryStrategyDetectsCleanComb) {
  for (const auto& info : detector_registry()) {
    const auto detector = make_period_detector(info.strategy, fast_params());
    int hits = 0;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      const auto times = comb(120.0, 40, 2.0, 300 + seed);
      stats::Rng rng(9);
      const auto det = detector->detect(times, rng);
      hits += det.periodic &&
              std::abs(det.period_seconds - 120.0) < 120.0 * 0.15;
    }
    EXPECT_GE(hits, 4) << "strategy " << info.name;
  }
}

TEST(DetectorPortfolio, LombScargleSurvivesJitterTheDefaultCannot) {
  // sigma = 15% of the period: the binned comb is smeared over many bins,
  // but the raw-timestamp periodogram keeps enough phase coherence. This
  // regime is the Lomb-Scargle strategy's reason to exist.
  const auto params = fast_params();
  const auto acf = make_period_detector(DetectorStrategy::kAcfFft, params);
  const auto ls = make_period_detector(DetectorStrategy::kLombScargle,
                                       params);
  int acf_hits = 0;
  int ls_hits = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto times = comb(60.0, 80, 9.0, 100 + seed);
    stats::Rng r1(7), r2(7);
    auto hit = [](const PeriodDetection& det) {
      return det.periodic && std::abs(det.period_seconds - 60.0) < 9.0;
    };
    acf_hits += hit(acf->detect(times, r1));
    ls_hits += hit(ls->detect(times, r2));
  }
  EXPECT_LE(acf_hits, 2);
  EXPECT_GE(ls_hits, 7);
}

TEST(DetectorPortfolio, LombScarglePeriodIsSharp) {
  const auto ls = make_period_detector(DetectorStrategy::kLombScargle,
                                       fast_params());
  const auto times = comb(300.0, 40, 3.0, 42);
  stats::Rng rng(5);
  const auto det = ls->detect(times, rng);
  ASSERT_TRUE(det.periodic);
  // No binning: the period comes off the refined periodogram peak, well
  // under a percent, where the binned default quantizes to whole bins.
  EXPECT_NEAR(det.period_seconds, 300.0, 3.0);
}

TEST(DetectorPortfolio, MultiPeriodRecoversOverlappedCombs) {
  const auto multi = make_period_detector(DetectorStrategy::kMultiPeriod,
                                          fast_params());
  int both = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto times = comb(60.0, 50, 1.0, 500 + seed);
    const auto second = comb(97.0, 31, 1.0, 600 + seed, 13.0);
    times.insert(times.end(), second.begin(), second.end());
    std::sort(times.begin(), times.end());
    stats::Rng rng(11);
    const auto dets = multi->detect_all(times, rng, 4);
    bool has60 = false;
    bool has97 = false;
    for (const auto& det : dets) {
      has60 = has60 || std::abs(det.period_seconds - 60.0) < 9.0;
      has97 = has97 || std::abs(det.period_seconds - 97.0) < 15.0;
    }
    both += has60 && has97;
  }
  EXPECT_GE(both, 4);
}

TEST(DetectorPortfolio, SinglePeriodStrategiesReportOneDetection) {
  auto times = comb(60.0, 50, 1.0, 500);
  const auto second = comb(97.0, 31, 1.0, 600, 13.0);
  times.insert(times.end(), second.begin(), second.end());
  std::sort(times.begin(), times.end());
  const auto acf = make_period_detector(DetectorStrategy::kAcfFft,
                                        fast_params());
  stats::Rng rng(11);
  const auto dets = acf->detect_all(times, rng, acf->max_detections());
  EXPECT_LE(dets.size(), 1u);
}

// --- strategy-routed second pass (anomaly triage) --------------------------

TEST(CheckPeriodStrategy, NonDefaultStrategyChangesSecondPassVerdict) {
  // The streaming study's targeted second pass re-examines suspect flows
  // with a raw-timestamp detector. On a heavy-jitter flow the default finds
  // nothing (no verdict at all), while Lomb-Scargle both finds the period
  // and grades the gaps against it.
  const auto params = fast_params();
  const auto acf = make_period_detector(DetectorStrategy::kAcfFft, params);
  const auto ls = make_period_detector(DetectorStrategy::kLombScargle,
                                       params);
  const auto times = comb(60.0, 80, 10.8, 104);

  stats::Rng r1(3);
  const auto default_verdict = check_period(times, *acf, r1);
  EXPECT_FALSE(default_verdict.detected);

  stats::Rng r2(3);
  const auto ls_verdict = check_period(times, *ls, r2);
  ASSERT_TRUE(ls_verdict.detected);
  EXPECT_NEAR(ls_verdict.period_seconds, 60.0, 9.0);
  EXPECT_GT(ls_verdict.anomaly.gaps, 0u);
}

TEST(CheckPeriodStrategy, RejectsNonPositiveTolerance) {
  const auto acf = make_period_detector(DetectorStrategy::kAcfFft,
                                        fast_params());
  const auto times = comb(60.0, 40, 1.0, 3);
  stats::Rng rng(3);
  EXPECT_THROW((void)check_period(times, *acf, rng, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace jsoncdn::core
