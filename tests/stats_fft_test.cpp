#include "stats/fft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <numbers>
#include <vector>

#include "stats/autocorrelation.h"
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

// The spectral kernel's periodogram against an O(n^2) DFT of the same
// zero-padded, mean-removed signal: bin k + 1's |X|^2 / padded.
class FftVsNaiveTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftVsNaiveTest, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<double> signal(n);
  for (auto& v : signal) v = rng.uniform(-1.0, 1.0);
  const auto spec = spectral_analysis(signal, n);
  ASSERT_EQ(spec.padded_size, next_pow2(2 * n));
  double mean = 0.0;
  for (const double v : signal) mean += v;
  mean /= static_cast<double>(n);
  std::vector<std::complex<double>> padded(spec.padded_size);
  for (std::size_t i = 0; i < n; ++i) padded[i] = signal[i] - mean;
  const auto expected = naive_dft(padded, false);
  ASSERT_EQ(spec.pgram_power.size(), spec.padded_size / 2);
  for (std::size_t k = 0; k < spec.pgram_power.size(); ++k) {
    EXPECT_NEAR(spec.pgram_power[k],
                std::norm(expected[k + 1]) /
                    static_cast<double>(spec.padded_size),
                1e-9 * static_cast<double>(n))
        << "bin " << k + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftVsNaiveTest,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256));

TEST(Fft, ParsevalEnergyConservation) {
  // The periodogram holds bins 1..N/2 of a real signal's N-point transform;
  // bins N/2+1..N-1 mirror 1..N/2-1, and bin 0 of a mean-removed signal is
  // ~0. So sum |X|^2 / N = 2 * (bins 1..N/2-1) + bin N/2 is the signal's
  // energy.
  Rng rng(10);
  std::vector<double> signal(64);
  for (auto& v : signal) v = rng.uniform(-1.0, 1.0);
  double mean = 0.0;
  for (const double v : signal) mean += v;
  mean /= static_cast<double>(signal.size());
  double time_energy = 0.0;
  for (const double v : signal) time_energy += (v - mean) * (v - mean);
  const auto spec = spectral_analysis(signal, 8);
  const auto& power = spec.pgram_power;
  double freq_energy = power.back();
  for (std::size_t k = 0; k + 1 < power.size(); ++k)
    freq_energy += 2.0 * power[k];
  EXPECT_NEAR(freq_energy, time_energy, 1e-9);
}

}  // namespace
}  // namespace jsoncdn::stats
