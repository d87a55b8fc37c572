// Property-style sweeps over the stats substrate: invariants that must hold
// for arbitrary random inputs, parameterized over seeds/sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "stats/autocorrelation.h"
#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/rng.h"

namespace jsoncdn::stats {
namespace {

class RandomSampleTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::vector<double> sample(std::size_t n) {
    Rng rng(GetParam());
    std::vector<double> out(n);
    for (auto& v : out) v = rng.uniform(-100.0, 100.0);
    return out;
  }
};

TEST_P(RandomSampleTest, PercentilesAreMonotoneInQ) {
  const auto values = sample(257);
  double prev = percentile(values, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double p = percentile(values, q);
    EXPECT_GE(p, prev) << "q=" << q;
    prev = p;
  }
}

TEST_P(RandomSampleTest, PercentilesBoundedByMinMax) {
  const auto values = sample(64);
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  for (double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    const double p = percentile(values, q);
    EXPECT_GE(p, *lo);
    EXPECT_LE(p, *hi);
  }
}

TEST_P(RandomSampleTest, SummaryMeanMatchesAccumulate) {
  const auto values = sample(100);
  const auto s = summarize(values);
  const double mean =
      std::accumulate(values.begin(), values.end(), 0.0) / values.size();
  EXPECT_NEAR(s.mean, mean, 1e-9);
  EXPECT_LE(s.min, s.p25);
  EXPECT_LE(s.p25, s.p50);
  EXPECT_LE(s.p50, s.p75);
  EXPECT_LE(s.p75, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST_P(RandomSampleTest, HistogramConservesTotal) {
  const auto values = sample(500);
  Histogram h(-50.0, 50.0, 13);
  for (const double v : values) h.add(v);
  std::uint64_t in_range = 0;
  for (std::size_t b = 0; b < h.bin_count(); ++b) in_range += h.count(b);
  EXPECT_EQ(in_range + h.underflow() + h.overflow(), values.size());
  EXPECT_EQ(h.total(), values.size());
}

TEST_P(RandomSampleTest, CdfIsMonotoneAndQuantileInverts) {
  const auto values = sample(128);
  EmpiricalCdf cdf{std::vector<double>(values)};
  double prev = 0.0;
  for (double x = -110.0; x <= 110.0; x += 10.0) {
    const double f = cdf.at(x);
    EXPECT_GE(f, prev);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
  // Quantiles interpolate between order statistics while at() is the step
  // ECDF, so inversion holds up to one empirical step.
  const double step = 1.0 / static_cast<double>(values.size());
  for (double q : {0.1, 0.5, 0.9}) {
    const double x = cdf.quantile(q);
    EXPECT_GE(cdf.at(x), q - step - 1e-9);
  }
}

// The transform and the mean removal are linear, so X(a + 2b) and X(a - 2b)
// are X(a) +/- 2 X(b), and the periodogram obeys the parallelogram law:
// |X(a + 2b)|^2 + |X(a - 2b)|^2 = 2 |X(a)|^2 + 8 |X(b)|^2, bin by bin.
TEST_P(RandomSampleTest, FftIsLinear) {
  Rng rng(GetParam() + 17);
  const std::size_t n = 128;
  std::vector<double> a(n);
  std::vector<double> b(n);
  std::vector<double> sum(n);
  std::vector<double> diff(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(-1.0, 1.0);
    b[i] = rng.uniform(-1.0, 1.0);
    sum[i] = a[i] + 2.0 * b[i];
    diff[i] = a[i] - 2.0 * b[i];
  }
  const auto pa = spectral_analysis(a, 8).pgram_power;
  const auto pb = spectral_analysis(b, 8).pgram_power;
  const auto ps = spectral_analysis(sum, 8).pgram_power;
  const auto pd = spectral_analysis(diff, 8).pgram_power;
  for (std::size_t k = 0; k < pa.size(); ++k) {
    EXPECT_NEAR(ps[k] + pd[k], 2.0 * pa[k] + 8.0 * pb[k], 1e-9) << "bin " << k;
  }
}

TEST_P(RandomSampleTest, ZipfCdfIsProper) {
  Rng rng(GetParam());
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 200));
  const double s = rng.uniform(0.0, 2.5);
  ZipfSampler zipf(n, s);
  double total = 0.0;
  for (std::size_t k = 0; k < zipf.size(); ++k) {
    const double p = zipf.pmf(k);
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(RandomSampleTest, BodySamplerAlwaysWithinBounds) {
  Rng rng(GetParam());
  BodySizeSampler::Params params;
  params.log_mean = rng.uniform(4.0, 12.0);
  params.log_stddev = rng.uniform(0.1, 2.0);
  params.tail_prob = rng.uniform(0.0, 0.5);
  params.min_bytes = 32;
  params.max_bytes = 1 << 22;
  BodySizeSampler sampler(params);
  for (int i = 0; i < 200; ++i) {
    const auto bytes = sampler.sample(rng);
    EXPECT_GE(bytes, params.min_bytes);
    EXPECT_LE(bytes, params.max_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSampleTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace jsoncdn::stats
