#include "stats/autocorrelation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "stats/rng.h"

namespace jsoncdn::stats {
namespace {

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.uniform(-1.0, 1.0);
  return out;
}

TEST(Autocorrelation, LagZeroIsOneForVaryingSignal) {
  const auto signal = random_signal(50, 1);
  const auto r = autocorrelation_direct(signal, 10);
  EXPECT_NEAR(r[0], 1.0, 1e-12);
}

TEST(Autocorrelation, ConstantSignalIsAllZero) {
  std::vector<double> signal(32, 3.0);
  for (const double v : autocorrelation_direct(signal, 8)) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
  for (const double v : spectral_analysis(signal, 8).acf) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

// A constant whose mean does not round back exactly (three 0.1s sum to
// 0.30000000000000004) is still constant: every path centres it on its
// first sample, so its ACF, periodogram and null maxima are all zero, in
// every lane of the spectral kernel.
TEST(Autocorrelation, NonIntegerConstantSignalIsAllZero) {
  for (const std::size_t n : {3u, 64u}) {
    const std::vector<double> constant(n, 0.1);
    for (const double v : autocorrelation_direct(constant, n)) {
      EXPECT_EQ(v, 0.0) << "n=" << n;
    }
    const auto spec = spectral_analysis(constant, n);
    for (const double v : spec.acf) EXPECT_EQ(v, 0.0) << "n=" << n;
    for (const double p : spec.pgram_power) EXPECT_EQ(p, 0.0) << "n=" << n;

    const auto varying = random_signal(n, 7);
    SpectralWorkspace ws;
    for (std::size_t lanes = 1; lanes <= kSpectralLanes; ++lanes) {
      for (std::size_t pos = 0; pos < lanes; ++pos) {
        std::vector<const double*> ptrs(lanes, varying.data());
        ptrs[pos] = constant.data();
        const auto got = spectral_maxima(ptrs, n, n, ws);
        EXPECT_EQ(got.acf_peak[pos], 0.0) << "n=" << n << " lane " << pos;
        EXPECT_EQ(got.power[pos], 0.0) << "n=" << n << " lane " << pos;
      }
    }
  }
}

TEST(Autocorrelation, MaxLagClampedToSizeMinusOne) {
  const auto signal = random_signal(10, 2);
  EXPECT_EQ(autocorrelation_direct(signal, 100).size(), 10u);
  EXPECT_EQ(spectral_analysis(signal, 100).acf.size(), 10u);
}

TEST(Autocorrelation, RejectsEmptySignal) {
  EXPECT_THROW((void)autocorrelation_direct({}, 5), std::invalid_argument);
  EXPECT_THROW((void)spectral_analysis({}, 5), std::invalid_argument);
}

class AcfEquivalenceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AcfEquivalenceTest, FftMatchesDirect) {
  const auto signal = random_signal(GetParam(), GetParam());
  const auto direct = autocorrelation_direct(signal, GetParam() / 2);
  const auto fast = spectral_analysis(signal, GetParam() / 2).acf;
  ASSERT_EQ(direct.size(), fast.size());
  for (std::size_t k = 0; k < direct.size(); ++k) {
    EXPECT_NEAR(direct[k], fast[k], 1e-9) << "lag " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AcfEquivalenceTest,
                         ::testing::Values(2, 3, 5, 17, 64, 100, 255));

TEST(Autocorrelation, PeriodicImpulseTrainPeaksAtPeriod) {
  // Impulse every 10 samples.
  std::vector<double> signal(200, 0.0);
  for (std::size_t i = 0; i < signal.size(); i += 10) signal[i] = 1.0;
  const auto r = spectral_analysis(signal, 50).acf;
  const auto peaks = acf_peaks(r);
  ASSERT_FALSE(peaks.empty());
  // The strongest peak must be at lag 10 (or a multiple).
  std::size_t best = peaks.front();
  for (const auto p : peaks) {
    if (r[p] > r[best]) best = p;
  }
  EXPECT_EQ(best % 10, 0u);
  EXPECT_GT(r[best], 0.8);
}

TEST(AcfPeaks, FindsInteriorLocalMaxima) {
  const std::vector<double> r = {1.0, 0.2, 0.8, 0.3, 0.1, 0.5};
  const auto peaks = acf_peaks(r);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0], 2u);
  EXPECT_EQ(peaks[1], 5u);  // rising final lag counts
}

TEST(AcfPeaks, MonotoneDecreasingHasNoPeaks) {
  const std::vector<double> r = {1.0, 0.8, 0.6, 0.4};
  EXPECT_TRUE(acf_peaks(r).empty());
}

TEST(SpectralAnalysis, PgramPeakAtPlantedPeriod) {
  std::vector<double> signal(512);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    signal[i] = std::sin(2.0 * std::numbers::pi * static_cast<double>(i) / 16.0);
  }
  const auto spec = spectral_analysis(signal, 200);
  std::size_t best = 0;
  for (std::size_t k = 1; k < spec.pgram_power.size(); ++k) {
    if (spec.pgram_power[k] > spec.pgram_power[best]) best = k;
  }
  EXPECT_NEAR(spec.pgram_period_samples(best), 16.0, 0.2);
}

TEST(Periodogram, DcIsExcluded) {
  // Pure constant: mean removal leaves nothing.
  std::vector<double> signal(64, 5.0);
  const auto spec = spectral_analysis(signal, 8);
  // Bins 1..padded/2 only: no DC bin.
  ASSERT_EQ(spec.pgram_power.size(), spec.padded_size / 2);
  EXPECT_DOUBLE_EQ(spec.pgram_period_samples(spec.pgram_power.size() - 1), 2.0);
  for (const double p : spec.pgram_power) EXPECT_NEAR(p, 0.0, 1e-12);
}

TEST(SpectralAnalysis, PaddedSizeIsAtLeastTwiceInput) {
  const auto spec = spectral_analysis(random_signal(100, 6), 10);
  EXPECT_GE(spec.padded_size, 200u);
  EXPECT_EQ(spec.padded_size & (spec.padded_size - 1), 0u);
}

}  // namespace
}  // namespace jsoncdn::stats
