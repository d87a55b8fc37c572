// Scalar-vs-SIMD equivalence suite for the dual-build analysis kernels
// (stats/kernels.h). The contract under test: every kernel — float kernels
// included, because both builds compile the identical arithmetic graph with
// FP contraction off — returns bit-identical results whichever dispatch path
// runs it, and matches the pre-kernel reference loop (kernels::baseline) the
// call sites ran before the kernel layer existed. Lengths sweep 0 / 1 /
// lane-1 / lane / lane+1 and beyond so remainder handling is covered on
// every kernel, and the counting kernels are additionally sharded the way
// parallel_reduce shards them to pin order-independence.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "shard/varint.h"
#include "stats/autocorrelation.h"
#include "stats/fft.h"
#include "stats/kernels.h"
#include "stats/rng.h"
#include "stats/simd.h"

namespace jsoncdn {
namespace {

namespace kernels = stats::kernels;

// Edge lengths around the 4-wide double / 8-wide int32 AVX2 lanes, plus the
// 1024-element internal block size of bin_events, plus a mid-size bulk.
constexpr std::array<std::size_t, 17> kLengths = {
    0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 1000, 1023, 1024, 1025};

// Runs `fn(simd_active)` under both dispatch paths, restoring the mode the
// process entered with. On hardware without the SIMD build both invocations
// run the scalar build and the comparison is trivially (but still validly)
// satisfied.
template <typename Fn>
void with_both_modes(Fn&& fn) {
  const bool entry = stats::simd_enabled();
  stats::set_simd_enabled(false);
  fn(false);
  stats::set_simd_enabled(true);
  fn(stats::simd_available());
  stats::set_simd_enabled(entry);
}

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed,
                                   double scale) {
  std::vector<double> out(n);
  std::uint64_t s = seed;
  for (auto& v : out) {
    s = stats::splitmix64(s);
    // Map to [-scale, scale) with full mantissa variety.
    v = (static_cast<double>(s >> 11) / 9007199254740992.0 * 2.0 - 1.0) *
        scale;
  }
  return out;
}

std::vector<std::uint64_t> random_u64(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> out(n);
  std::uint64_t s = seed;
  for (auto& v : out) v = s = stats::splitmix64(s);
  return out;
}

::testing::AssertionResult bits_equal(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size " << a.size() << " vs "
                                         << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return ::testing::AssertionFailure()
             << "bit mismatch at " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// The pre-kernel single-signal pass over `signal` (the oracle of the
// spectral kernel) and the two maxima the permutation test reads from it:
// the largest ACF value at a peak lag (0 when there is none) and the
// largest periodogram power (0-seeded).
struct BaselinePass {
  std::vector<double> acf;
  std::vector<double> pgram;
  double acf_peak = 0.0;
  double power = 0.0;
};

BaselinePass baseline_pass(const std::vector<double>& signal,
                           std::size_t max_lag) {
  const std::size_t n = signal.size();
  const std::size_t padded = stats::next_pow2(2 * n);
  std::vector<std::complex<double>> buf(padded);
  BaselinePass out;
  out.acf.resize(std::min(max_lag, n - 1) + 1);
  out.pgram.resize(padded / 2);
  kernels::baseline::spectral_pass(signal.data(), n, max_lag, padded,
                                   buf.data(), out.acf.data(),
                                   out.pgram.data());
  for (const std::size_t k : stats::acf_peaks(out.acf))
    out.acf_peak = std::max(out.acf_peak, out.acf[k]);
  for (const double p : out.pgram) out.power = std::max(out.power, p);
  return out;
}

TEST(SimdKernels, DispatchRespectsOverrideAndReportsIsa) {
  const bool entry = stats::simd_enabled();
  stats::set_simd_enabled(false);
  EXPECT_FALSE(stats::simd_enabled());
  EXPECT_STREQ(stats::simd_isa(), "scalar");
  stats::set_simd_enabled(true);
  EXPECT_EQ(stats::simd_enabled(), stats::simd_available());
  if (stats::simd_available()) {
    EXPECT_STRNE(stats::simd_isa(), "scalar");
  }
  stats::set_simd_enabled(entry);
}

// The spectral kernel (stats::spectral_maxima, one lane per signal): each
// live lane's maxima equal those of the pre-kernel single-signal pass
// (kernels::baseline::spectral_pass) bit for bit, in every lane position,
// with 1 to 4 live lanes, under both dispatch modes; lane 0's full spectra,
// written on request, equal that pass's ACF and periodogram.
TEST(SimdKernels, SpectralMaximaLanesMatchSingleSignalPath) {
  // 512 pads to 1,024 points and 1,024 to 2,048; 700 is not a power of
  // two; 3 and 1 are the degenerate short cases (max_lag clamps to n - 1).
  for (const std::size_t n : {512u, 1024u, 700u, 3u, 1u}) {
    std::vector<std::vector<double>> signals;
    // Binned-count lanes (what the null shuffles) and a full-mantissa lane.
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      std::vector<double> counts(n);
      std::uint64_t state = seed * 0x9e37u + n;
      for (auto& v : counts) {
        state = stats::splitmix64(state);
        v = static_cast<double>(state % 5);
      }
      signals.push_back(counts);
    }
    signals.push_back(random_doubles(n, 0x1a4e5u + n, 3.0));
    // Constant lanes: energy 0, so the ACF is all zeros and has no peak,
    // whether or not the constant's rounded mean comes back exactly.
    signals.push_back(std::vector<double>(n, 2.5));
    signals.push_back(std::vector<double>(n, 0.1));
    const std::size_t max_lag = n / 3 + 1;
    std::vector<BaselinePass> ref;
    for (const auto& signal : signals)
      ref.push_back(baseline_pass(signal, max_lag));

    with_both_modes([&](bool) {
      stats::SpectralWorkspace ws;
      stats::SpectralAnalysis lane0;
      // Every window of 1..4 consecutive signals, so each signal runs in
      // each lane position and in partial batches.
      for (std::size_t lanes = 1; lanes <= stats::kSpectralLanes; ++lanes) {
        for (std::size_t first = 0; first + lanes <= signals.size();
             ++first) {
          std::vector<const double*> ptrs;
          for (std::size_t l = 0; l < lanes; ++l)
            ptrs.push_back(signals[first + l].data());
          const auto got = stats::spectral_maxima(ptrs, n, max_lag, ws,
                                                  &lane0);
          for (std::size_t l = 0; l < lanes; ++l) {
            const auto& want = ref[first + l];
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.acf_peak[l]),
                      std::bit_cast<std::uint64_t>(want.acf_peak))
                << "n=" << n << " lanes=" << lanes << " signal "
                << first + l << " acf " << got.acf_peak[l] << " vs "
                << want.acf_peak;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.power[l]),
                      std::bit_cast<std::uint64_t>(want.power))
                << "n=" << n << " lanes=" << lanes << " signal "
                << first + l;
          }
          EXPECT_EQ(lane0.padded_size, stats::next_pow2(2 * n));
          EXPECT_TRUE(bits_equal(ref[first].acf, lane0.acf))
              << "n=" << n << " lanes=" << lanes << " signal " << first;
          EXPECT_TRUE(bits_equal(ref[first].pgram, lane0.pgram_power))
              << "n=" << n << " lanes=" << lanes << " signal " << first;
        }
      }
    });
  }
}

TEST(SimdKernels, SpectralMaximaRejectsEmptyAndOversizedBatches) {
  const std::vector<double> signal(8, 1.0);
  const double* five[5] = {signal.data(), signal.data(), signal.data(),
                           signal.data(), signal.data()};
  stats::SpectralWorkspace ws;
  EXPECT_THROW((void)stats::spectral_maxima(std::span(five, 5), 8, 2, ws),
               std::invalid_argument);
  EXPECT_THROW((void)stats::spectral_maxima(std::span(five, 0), 8, 2, ws),
               std::invalid_argument);
  EXPECT_THROW((void)stats::spectral_maxima(std::span(five, 1), 0, 2, ws),
               std::invalid_argument);
}

// spectral_analysis's full ACF and periodogram equal the pre-kernel
// single-signal pass (kernels::baseline::spectral_pass) bit for bit under
// both dispatch modes: binned counts, a full-mantissa signal and a
// non-integer constant, at lengths padding to 2 through 2,048 points.
TEST(SimdKernels, SpectralAnalysisBitEqualsBaselineSpectralPass) {
  for (const std::size_t n : {1u, 3u, 512u, 700u, 1024u}) {
    std::vector<double> counts(n);
    std::uint64_t state = 0x5bec7u + n;
    for (auto& v : counts) {
      state = stats::splitmix64(state);
      v = static_cast<double>(state % 7);
    }
    const std::vector<std::vector<double>> signals = {
        counts, random_doubles(n, 0x0bac1eu + n, 3.0),
        std::vector<double>(n, 0.1)};
    const std::size_t max_lag = n / 3 + 1;
    const std::size_t padded = stats::next_pow2(2 * n);
    for (std::size_t s = 0; s < signals.size(); ++s) {
      std::vector<std::complex<double>> buf(padded);
      std::vector<double> acf(std::min(max_lag, n - 1) + 1);
      std::vector<double> pgram(padded / 2);
      kernels::baseline::spectral_pass(signals[s].data(), n, max_lag, padded,
                                       buf.data(), acf.data(), pgram.data());
      with_both_modes([&](bool) {
        const auto spec = stats::spectral_analysis(signals[s], max_lag);
        EXPECT_EQ(spec.padded_size, padded);
        EXPECT_TRUE(bits_equal(acf, spec.acf))
            << "n=" << n << " signal " << s << " isa=" << stats::simd_isa();
        EXPECT_TRUE(bits_equal(pgram, spec.pgram_power))
            << "n=" << n << " signal " << s << " isa=" << stats::simd_isa();
      });
    }
  }
}

// The transform at every size the detector can reach: the spectral kernel's
// butterflies give each lane's maxima and lane 0's full ACF (every lag) and
// periodogram bit-equal to kernels::baseline::spectral_pass (the serial
// w *= wlen butterflies) under both dispatch modes, at each padded size 2
// through 2,048 (1 to 11 butterfly stages), for the shortest and the
// longest signal that pads to it. Four full-mantissa signals rotate so each
// takes lane 0 once.
TEST(SimdKernels, FftPassMatchesBaselineBitIdentical) {
  for (std::size_t padded = 2; padded <= 2048; padded <<= 1) {
    std::vector<std::size_t> lengths = {padded / 2};
    if (padded / 4 + 1 < padded / 2) lengths.push_back(padded / 4 + 1);
    for (const std::size_t n : lengths) {
      ASSERT_EQ(stats::next_pow2(2 * n), padded);
      const std::size_t max_lag = n - 1;
      std::vector<std::vector<double>> signals;
      std::vector<BaselinePass> ref;
      for (std::size_t l = 0; l < stats::kSpectralLanes; ++l) {
        signals.push_back(random_doubles(n, 0xf17u + 16 * n + l, 100.0));
        ref.push_back(baseline_pass(signals.back(), max_lag));
      }
      with_both_modes([&](bool) {
        stats::SpectralWorkspace ws;
        stats::SpectralAnalysis lane0;
        for (std::size_t r = 0; r < stats::kSpectralLanes; ++r) {
          std::vector<const double*> ptrs;
          for (std::size_t l = 0; l < stats::kSpectralLanes; ++l)
            ptrs.push_back(signals[(r + l) % stats::kSpectralLanes].data());
          const auto got =
              stats::spectral_maxima(ptrs, n, max_lag, ws, &lane0);
          for (std::size_t l = 0; l < stats::kSpectralLanes; ++l) {
            const auto& want = ref[(r + l) % stats::kSpectralLanes];
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.acf_peak[l]),
                      std::bit_cast<std::uint64_t>(want.acf_peak))
                << "padded=" << padded << " n=" << n << " lane " << l;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.power[l]),
                      std::bit_cast<std::uint64_t>(want.power))
                << "padded=" << padded << " n=" << n << " lane " << l;
          }
          EXPECT_EQ(lane0.padded_size, padded);
          EXPECT_TRUE(bits_equal(ref[r].acf, lane0.acf))
              << "padded=" << padded << " n=" << n << " signal " << r
              << " isa=" << stats::simd_isa();
          EXPECT_TRUE(bits_equal(ref[r].pgram, lane0.pgram_power))
              << "padded=" << padded << " n=" << n << " signal " << r
              << " isa=" << stats::simd_isa();
        }
      });
    }
  }
}

// |X|^2, the periodogram division and the ACF scaling (inside the spectral
// kernel) come out of the scalar and the SIMD build with the same bits:
// spectral_analysis's full ACF (max_lag past the end clamps to n - 1) and
// periodogram, and the four-lane maxima of spectral_maxima, computed under
// each dispatch path and compared with each other directly, at the
// lane-remainder edge lengths.
TEST(SimdKernels, ComplexNormAndExtractsBitIdenticalAcrossDispatch) {
  for (const std::size_t n : kLengths) {
    if (n == 0) continue;  // empty: SpectralMaximaRejectsEmptyAndOversizedBatches
    std::vector<std::vector<double>> signals;
    std::vector<const double*> ptrs;
    for (std::size_t l = 0; l < stats::kSpectralLanes; ++l) {
      signals.push_back(random_doubles(n, 0xabcu + 4 * n + l, 50.0));
      ptrs.push_back(signals.back().data());
    }
    const std::size_t max_lag = n;
    // [mode][signal]: mode 0 is the scalar build, mode 1 the SIMD build.
    std::vector<std::vector<stats::SpectralAnalysis>> spec;
    std::vector<stats::SpectralMaxima> maxima;
    with_both_modes([&](bool) {
      stats::SpectralWorkspace ws;
      spec.emplace_back();
      for (const auto& signal : signals)
        spec.back().push_back(stats::spectral_analysis(signal, max_lag));
      maxima.push_back(stats::spectral_maxima(ptrs, n, max_lag, ws));
    });
    ASSERT_EQ(spec.size(), 2u);
    for (std::size_t l = 0; l < stats::kSpectralLanes; ++l) {
      EXPECT_EQ(spec[0][l].acf.size(), n);
      EXPECT_EQ(spec[0][l].pgram_power.size(), stats::next_pow2(2 * n) / 2);
      EXPECT_TRUE(bits_equal(spec[0][l].acf, spec[1][l].acf))
          << "n=" << n << " signal " << l;
      EXPECT_TRUE(bits_equal(spec[0][l].pgram_power, spec[1][l].pgram_power))
          << "n=" << n << " signal " << l;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(maxima[0].acf_peak[l]),
                std::bit_cast<std::uint64_t>(maxima[1].acf_peak[l]))
          << "n=" << n << " lane " << l;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(maxima[0].power[l]),
                std::bit_cast<std::uint64_t>(maxima[1].power[l]))
          << "n=" << n << " lane " << l;
    }
  }
}

TEST(SimdKernels, BinEventsMatchesBaselineIncludingExactEdges) {
  const double t_begin = 10.0;
  const double dt = 0.25;
  const std::size_t nbins = 16;
  const double t_end = t_begin + dt * static_cast<double>(nbins);
  for (const std::size_t n : kLengths) {
    auto times = random_doubles(n, 0xb1du + n, 3.0);
    for (auto& t : times) t = t_begin + (t + 3.0) * 0.8;  // mostly in-window
    // Salt in the hard cases: exact bin edges, the window edges themselves,
    // out-of-window values on both sides, and a top-edge round-off stressor.
    const double specials[] = {t_begin,        t_begin + dt,  t_begin + 7 * dt,
                               t_end - dt,     t_end,         t_end + 1.0,
                               t_begin - 1e-9, std::nextafter(t_end, t_begin),
                               t_begin + 0.999999 * dt};
    for (std::size_t i = 0; i < n && i < std::size(specials); ++i)
      times[i] = specials[i];

    std::vector<double> expected(nbins, 0.0);
    kernels::baseline::bin_events(times.data(), n, t_begin, t_end, dt,
                                  expected.data(), nbins);
    with_both_modes([&](bool) {
      std::vector<double> got(nbins, 0.0);
      kernels::bin_events(times.data(), n, t_begin, t_end, dt, got.data(),
                          nbins);
      EXPECT_TRUE(bits_equal(expected, got)) << "n=" << n;
    });
  }
}

TEST(SimdKernels, BinEventsExactBoundaryTimestampsLandInOpeningBin) {
  // Regression for the bin-edge rounding audit: a timestamp exactly on an
  // interior bin edge belongs to the bin it opens (quotient is exact), the
  // window start lands in bin 0, and t_end is excluded — identically under
  // both dispatch paths.
  const double t_begin = 100.0;
  const double dt = 0.5;
  const std::size_t nbins = 8;
  const double t_end = 104.0;
  const std::vector<double> times = {100.0, 100.5, 101.5, 103.5, 104.0};
  with_both_modes([&](bool) {
    std::vector<double> bins(nbins, 0.0);
    kernels::bin_events(times.data(), times.size(), t_begin, t_end, dt,
                        bins.data(), nbins);
    EXPECT_DOUBLE_EQ(bins[0], 1.0);  // t_begin itself
    EXPECT_DOUBLE_EQ(bins[1], 1.0);  // first interior edge opens bin 1
    EXPECT_DOUBLE_EQ(bins[3], 1.0);
    EXPECT_DOUBLE_EQ(bins[7], 1.0);  // last edge opens the final bin
    double total = 0.0;
    for (const double b : bins) total += b;
    EXPECT_DOUBLE_EQ(total, 4.0);  // t_end excluded
  });
}

TEST(SimdKernels, BinEventsLargeSortedAndShuffledMatchBaseline) {
  // Large inputs engage the kernel's bulk strategies — the sorted
  // boundary-search path for chronological times and the integer
  // sub-histogram scatter for shuffled ones — both of which must reproduce
  // the single-pass loop bit for bit. dt = 1/3 is not representable, so the
  // bin edges and the top-edge clamp all involve real round-off.
  const std::size_t n = 8192;
  const double t_begin = -7.0;
  const double dt = 1.0 / 3.0;
  for (const std::size_t nbins :
       {std::size_t{1}, std::size_t{16}, std::size_t{1024}}) {
    const double t_end = t_begin + dt * static_cast<double>(nbins);
    auto times = random_doubles(n, 0x50feu + nbins, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      times[i] = t_begin - 5.0 + (times[i] + 1.0) * 0.5 *
                                     (t_end - t_begin + 10.0);
    }
    // Exact interior edges, window edges, duplicates, and off-by-one-ulp.
    for (std::size_t i = 0; i + 4 <= n && i < 40 * nbins; i += 4) {
      const double edge =
          t_begin + dt * static_cast<double>((i / 4) % (nbins + 1));
      times[i] = edge;
      times[i + 1] = edge;
      times[i + 2] = std::nextafter(edge, t_begin);
      times[i + 3] = t_end;
    }
    std::vector<double> shuffled = times;
    std::sort(times.begin(), times.end());
    std::vector<double> nearly = times;
    std::swap(nearly[n - 1], nearly[n / 2]);  // defeats the sorted detector

    for (const auto* input : {&times, &shuffled, &nearly}) {
      std::vector<double> expected(nbins, 0.0);
      kernels::baseline::bin_events(input->data(), n, t_begin, t_end, dt,
                                    expected.data(), nbins);
      with_both_modes([&](bool) {
        std::vector<double> got(nbins, 0.0);
        kernels::bin_events(input->data(), n, t_begin, t_end, dt, got.data(),
                            nbins);
        EXPECT_TRUE(bits_equal(expected, got))
            << "nbins=" << nbins
            << (input == &times ? " sorted" : input == &shuffled ? " shuffled"
                                                                 : " nearly");
      });
    }
  }
}

TEST(SimdKernels, DiffAscendingComputesGapsAndFlagsViolations) {
  for (const std::size_t n : kLengths) {
    if (n < 2) {
      with_both_modes([&](bool) {
        double out = 0.0;
        const double t = 1.0;
        EXPECT_TRUE(kernels::diff_ascending(&t, n, &out));
      });
      continue;
    }
    auto x = random_doubles(n, 0x9e3u + n, 1.0);
    std::sort(x.begin(), x.end());
    std::vector<double> expected(n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) expected[i] = x[i + 1] - x[i];
    with_both_modes([&](bool) {
      std::vector<double> got(n - 1);
      EXPECT_TRUE(kernels::diff_ascending(x.data(), n, got.data()));
      EXPECT_TRUE(bits_equal(expected, got)) << "n=" << n;
    });
    // One violation anywhere flips the flag; gaps are still written.
    auto bad = x;
    std::swap(bad[n / 2], bad[n - 1]);
    if (bad[n / 2] == bad[n - 1]) continue;  // duplicate values: no violation
    with_both_modes([&](bool) {
      std::vector<double> got(n - 1);
      EXPECT_FALSE(kernels::diff_ascending(bad.data(), n, got.data()));
    });
  }
}

TEST(SimdKernels, CountU32MatchesBaselineAcrossTableShapes) {
  // Shapes straddling the multi-table cutover: tiny tables, the 4096-key
  // boundary, and a table too large for sub-table splitting; uniform and
  // heavily skewed streams; gathered and direct walks.
  const std::size_t shapes[][2] = {
      {1, 64}, {7, 64}, {8, 8}, {4096, 100000}, {4097, 100000}, {8000, 9000}};
  for (const auto& [n_keys, n] : shapes) {
    const auto raw = random_u64(n, 0xc0deu + n_keys);
    std::vector<std::uint32_t> uniform(n);
    std::vector<std::uint32_t> skewed(n);
    for (std::size_t i = 0; i < n; ++i) {
      uniform[i] = static_cast<std::uint32_t>(raw[i] % n_keys);
      // ~90% of the stream hits key 0 — the store-forwarding worst case.
      skewed[i] = (raw[i] % 10 != 0)
                      ? 0u
                      : static_cast<std::uint32_t>(raw[i] % n_keys);
    }
    std::vector<std::uint32_t> idx;
    for (std::size_t i = 0; i < n; i += 2)
      idx.push_back(static_cast<std::uint32_t>(i));

    for (const auto* keys : {&uniform, &skewed}) {
      for (const bool gathered : {false, true}) {
        const std::uint32_t* gi = gathered ? idx.data() : nullptr;
        const std::size_t count = gathered ? idx.size() : n;
        // Accumulation contract: start from a non-zero tally.
        std::vector<std::uint64_t> expected(n_keys, 5);
        kernels::baseline::count_u32(keys->data(), gi, count, expected.data(),
                                     n_keys);
        with_both_modes([&](bool) {
          std::vector<std::uint64_t> got(n_keys, 5);
          kernels::count_u32(keys->data(), gi, count, got.data(), n_keys);
          EXPECT_EQ(expected, got)
              << "n_keys=" << n_keys << " gathered=" << gathered;
        });
      }
    }
  }
}

TEST(SimdKernels, CountingKernelsShardAccumulateLikeSinglePass) {
  // The parallel_reduce usage: shards tally into per-shard buffers that
  // merge by addition. u64 increments commute, so any shard split — any
  // thread count — must reproduce the single-pass tallies exactly.
  constexpr std::size_t n = 4099;
  constexpr std::size_t n_keys = 37;
  const auto raw = random_u64(n, 0x5eedu);
  std::vector<std::uint32_t> keys(n);
  std::vector<std::int32_t> enums(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<std::uint32_t>(raw[i] % n_keys);
    enums[i] = static_cast<std::int32_t>(raw[i] % 8);
  }
  with_both_modes([&](bool) {
    std::vector<std::uint64_t> whole_keys(n_keys, 0);
    kernels::count_u32(keys.data(), nullptr, n, whole_keys.data(), n_keys);
    std::vector<std::uint64_t> whole_enum(8, 0);
    kernels::count_enum8(enums.data(), nullptr, n, whole_enum.data());

    for (const std::size_t shards : {1, 2, 3, 8}) {
      std::vector<std::uint64_t> acc_keys(n_keys, 0);
      std::vector<std::uint64_t> acc_enum(8, 0);
      for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t b = n * s / shards;
        const std::size_t e = n * (s + 1) / shards;
        kernels::count_u32(keys.data() + b, nullptr, e - b, acc_keys.data(),
                           n_keys);
        kernels::count_enum8(enums.data() + b, nullptr, e - b,
                             acc_enum.data());
      }
      EXPECT_EQ(whole_keys, acc_keys) << "shards=" << shards;
      EXPECT_EQ(whole_enum, acc_enum) << "shards=" << shards;
    }
  });
}

TEST(SimdKernels, CountEnum8MatchesManualTally) {
  for (const std::size_t n : kLengths) {
    const auto raw = random_u64(n, 0xe9u + n);
    std::vector<std::int32_t> vals(n);
    for (std::size_t i = 0; i < n; ++i)
      vals[i] = static_cast<std::int32_t>(raw[i] % 8);
    std::vector<std::uint32_t> idx;
    for (std::size_t i = 0; i < n; i += 3)
      idx.push_back(static_cast<std::uint32_t>(i));

    for (const bool gathered : {false, true}) {
      const std::uint32_t* gi = gathered ? idx.data() : nullptr;
      const std::size_t count = gathered ? idx.size() : n;
      std::vector<std::uint64_t> expected(8, 0);
      for (std::size_t i = 0; i < count; ++i)
        ++expected[static_cast<std::size_t>(vals[gathered ? idx[i] : i])];
      with_both_modes([&](bool) {
        std::vector<std::uint64_t> got(8, 0);
        kernels::count_enum8(vals.data(), gi, count, got.data());
        EXPECT_EQ(expected, got) << "n=" << n << " gathered=" << gathered;
      });
    }
  }
}

TEST(SimdKernels, CountStatusMatchesBaseline) {
  const std::int32_t pool[] = {200, 204, 299, 300, 304, 399, 400, 404, 499,
                               500, 503, 504, 599, 100, 0,   -5,  999, 504};
  for (const std::size_t n : kLengths) {
    std::vector<std::int32_t> status(n);
    for (std::size_t i = 0; i < n; ++i) status[i] = pool[i % std::size(pool)];
    std::vector<std::uint32_t> idx;
    for (std::size_t i = 0; i < n; i += 2)
      idx.push_back(static_cast<std::uint32_t>(i));
    for (const bool gathered : {false, true}) {
      const std::uint32_t* gi = gathered ? idx.data() : nullptr;
      const std::size_t count = gathered ? idx.size() : n;
      const auto expected =
          kernels::baseline::count_status(status.data(), gi, count);
      with_both_modes([&](bool) {
        const auto got = kernels::count_status(status.data(), gi, count);
        EXPECT_EQ(expected.ok_2xx, got.ok_2xx);
        EXPECT_EQ(expected.redirect_3xx, got.redirect_3xx);
        EXPECT_EQ(expected.client_error_4xx, got.client_error_4xx);
        EXPECT_EQ(expected.server_error_5xx, got.server_error_5xx);
        EXPECT_EQ(expected.gateway_timeout_504, got.gateway_timeout_504);
      });
    }
  }
}

TEST(SimdKernels, DeltaDecoderBulkMatchesScalarGet) {
  // Values spanning every varint length, including modular-wraparound jumps.
  std::vector<std::uint64_t> values = {0,
                                       1,
                                       127,
                                       128,
                                       300,
                                       1u << 20,
                                       0xffffffffULL,
                                       0xffffffffffffffffULL,
                                       5,
                                       0x8000000000000000ULL,
                                       6};
  const auto extra = random_u64(500, 0xdecu);
  for (const auto v : extra) values.push_back(v % 4096);  // small deltas

  std::string buf;
  {
    shard::DeltaEncoder enc;
    for (const auto v : values) enc.put(buf, v);
  }

  // Scalar reference decode.
  std::vector<std::uint64_t> expected(values.size());
  std::size_t ref_pos = 0;
  {
    shard::DeltaDecoder dec;
    for (auto& v : expected) ASSERT_TRUE(dec.get(buf, ref_pos, v));
  }
  EXPECT_EQ(expected, values);

  // Bulk decode, whole and split at an arbitrary interior point (decoder
  // state must carry across calls).
  {
    shard::DeltaDecoder dec;
    std::size_t pos = 0;
    std::vector<std::uint64_t> got(values.size());
    ASSERT_TRUE(dec.get_n(buf, pos, got.data(), got.size()));
    EXPECT_EQ(expected, got);
    EXPECT_EQ(ref_pos, pos);
  }
  {
    shard::DeltaDecoder dec;
    std::size_t pos = 0;
    std::vector<std::uint64_t> got(values.size());
    const std::size_t split = values.size() / 3;
    ASSERT_TRUE(dec.get_n(buf, pos, got.data(), split));
    ASSERT_TRUE(dec.get_n(buf, pos, got.data() + split, got.size() - split));
    EXPECT_EQ(expected, got);
    EXPECT_EQ(ref_pos, pos);
  }

  // Truncation parity: at every cut point the bulk decoder fails exactly
  // when the element-at-a-time loop fails.
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const std::string_view truncated(buf.data(), cut);
    bool loop_ok = true;
    {
      shard::DeltaDecoder dec;
      std::size_t pos = 0;
      for (std::size_t i = 0; i < values.size(); ++i) {
        std::uint64_t v = 0;
        if (!dec.get(truncated, pos, v)) {
          loop_ok = false;
          break;
        }
      }
    }
    shard::DeltaDecoder dec;
    std::size_t pos = 0;
    std::vector<std::uint64_t> got(values.size());
    EXPECT_EQ(loop_ok, dec.get_n(truncated, pos, got.data(), got.size()))
        << "cut=" << cut;
  }
}

}  // namespace
}  // namespace jsoncdn
