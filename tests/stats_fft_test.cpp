#include "stats/fft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "stats/rng.h"

namespace jsoncdn::stats {
namespace {

// O(n^2) reference DFT.
std::vector<std::complex<double>> naive_dft(
    const std::vector<std::complex<double>>& x, bool inverse) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc(0.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = 2.0 * std::numbers::pi * static_cast<double>(k) *
                           static_cast<double>(j) / static_cast<double>(n) *
                           (inverse ? 1.0 : -1.0);
      acc += x[j] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

TEST(NextPow2, Values) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(NextPow2, OverflowBoundary) {
  constexpr std::size_t kTop =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  // Exact powers map to themselves, including the largest representable one.
  EXPECT_EQ(next_pow2(kTop / 2), kTop / 2);
  EXPECT_EQ(next_pow2(kTop - 1), kTop);
  EXPECT_EQ(next_pow2(kTop), kTop);
  // Beyond the top power of two, no result is representable: 0 sentinel
  // instead of an infinite shift loop.
  EXPECT_EQ(next_pow2(kTop + 1), 0u);
  EXPECT_EQ(next_pow2(std::numeric_limits<std::size_t>::max()), 0u);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(3);
  EXPECT_THROW(fft_inplace(data, false), std::invalid_argument);
  std::vector<std::complex<double>> empty;
  EXPECT_THROW(fft_inplace(empty, false), std::invalid_argument);
}

class FftVsNaiveTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftVsNaiveTest, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<std::complex<double>> data(n);
  for (auto& v : data) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  auto expected = naive_dft(data, false);
  auto actual = data;
  fft_inplace(actual, false);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(actual[k].real(), expected[k].real(), 1e-9 * n);
    EXPECT_NEAR(actual[k].imag(), expected[k].imag(), 1e-9 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftVsNaiveTest,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256));

TEST(Fft, InverseRoundTripsToIdentity) {
  Rng rng(9);
  std::vector<std::complex<double>> data(128);
  for (auto& v : data) v = {rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
  auto back = data;
  fft_inplace(back, false);
  fft_inplace(back, true);  // unscaled: N times the input
  const double scale = 1.0 / static_cast<double>(back.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(back[i].real() * scale, data[i].real(), 1e-9);
    EXPECT_NEAR(back[i].imag() * scale, data[i].imag(), 1e-9);
  }
}

TEST(Fft, ParsevalEnergyConservation) {
  Rng rng(10);
  std::vector<std::complex<double>> data(64);
  double time_energy = 0.0;
  for (auto& v : data) {
    v = {rng.uniform(-1.0, 1.0), 0.0};
    time_energy += std::norm(v);
  }
  auto freq = data;
  fft_inplace(freq, false);
  double freq_energy = 0.0;
  for (const auto& v : freq) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / 64.0, time_energy, 1e-9);
}

}  // namespace
}  // namespace jsoncdn::stats
