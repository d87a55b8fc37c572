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
#include <numbers>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/periodicity_internal.h"
#include "shard/varint.h"
#include "stats/autocorrelation.h"
#include "stats/kernels.h"
#include "stats/rng.h"
#include "stats/simd.h"
#include "stream/countmin.h"
#include "stream/hyperloglog.h"

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

::testing::AssertionResult bits_equal(
    const std::vector<std::complex<double>>& a,
    const std::vector<std::complex<double>>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size mismatch";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].real()) !=
            std::bit_cast<std::uint64_t>(b[i].real()) ||
        std::bit_cast<std::uint64_t>(a[i].imag()) !=
            std::bit_cast<std::uint64_t>(b[i].imag())) {
      return ::testing::AssertionFailure() << "bit mismatch at " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

// The twiddle chain fft.cpp feeds the table kernel: one complex multiply
// per entry, exactly the w *= wlen recurrence the baseline stage runs.
std::vector<std::complex<double>> stage_twiddles(std::size_t len,
                                                 bool inverse) {
  const double angle = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                       static_cast<double>(len);
  const std::complex<double> wlen(std::cos(angle), std::sin(angle));
  std::vector<std::complex<double>> tw;
  tw.reserve(len / 2);
  std::complex<double> w(1.0, 0.0);
  for (std::size_t k = 0; k < len / 2; ++k) {
    tw.push_back(w);
    w *= wlen;
  }
  return tw;
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

TEST(SimdKernels, FftPassMatchesBaselineBitIdentical) {
  constexpr std::size_t n = 512;
  const auto re = random_doubles(n, 0xf17u, 100.0);
  const auto im = random_doubles(n, 0xf18u, 100.0);
  std::vector<std::complex<double>> input(n);
  for (std::size_t i = 0; i < n; ++i) input[i] = {re[i], im[i]};

  for (const bool inverse : {false, true}) {
    for (std::size_t len = 2; len <= n; len <<= 1) {
      auto expected = input;
      kernels::baseline::fft_pass(expected.data(), n, len, inverse);
      const auto tw = stage_twiddles(len, inverse);
      with_both_modes([&](bool) {
        auto got = input;
        kernels::fft_pass(got.data(), n, len, tw.data());
        EXPECT_TRUE(bits_equal(expected, got))
            << "len=" << len << " inverse=" << inverse << " isa="
            << stats::simd_isa();
      });
    }
  }
}

TEST(SimdKernels, ComplexNormAndExtractsBitIdenticalAcrossDispatch) {
  for (const std::size_t n : kLengths) {
    const auto re = random_doubles(n, 0xabcu + n, 50.0);
    const auto im = random_doubles(n, 0xdefu + n, 50.0);
    std::vector<std::complex<double>> input(n);
    for (std::size_t i = 0; i < n; ++i) input[i] = {re[i], im[i]};

    // Reference loops: the exact expressions the pre-kernel code ran.
    std::vector<std::complex<double>> norm_ref = input;
    for (auto& v : norm_ref)
      v = {v.real() * v.real() + v.imag() * v.imag(), 0.0};
    const double padded = 4096.0;
    const double scale = 1.0 / 3072.0;
    const double energy = 17.25;
    const std::size_t count = n > 0 ? n - 1 : 0;
    std::vector<double> pgram_ref(count);
    for (std::size_t k = 0; k < count; ++k)
      pgram_ref[k] = input[k + 1].real() / padded;
    std::vector<double> acf_ref(n);
    for (std::size_t k = 0; k < n; ++k)
      acf_ref[k] = (input[k].real() * scale) / energy;

    with_both_modes([&](bool) {
      auto norm = input;
      kernels::complex_norm(norm.data(), n);
      EXPECT_TRUE(bits_equal(norm_ref, norm)) << "n=" << n;

      std::vector<double> pgram(count);
      kernels::pgram_extract(input.data(), count, padded, pgram.data());
      EXPECT_TRUE(bits_equal(pgram_ref, pgram)) << "n=" << n;

      std::vector<double> acf(n);
      kernels::acf_extract(input.data(), n, scale, energy, acf.data());
      EXPECT_TRUE(bits_equal(acf_ref, acf)) << "n=" << n;
    });
  }
}

// The batched permutation null (stats::spectral_maxima, one lane per
// signal): each live lane's maxima equal the single-signal path's —
// spectral_analysis, then max_acf_peak / max_power — bit for bit, in every
// lane position, with 1 to 4 live lanes, under both dispatch modes.
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
    // A constant lane: energy 0, so its ACF is all zeros and has no peak.
    signals.push_back(std::vector<double>(n, 2.5));
    const std::size_t max_lag = n / 3 + 1;

    with_both_modes([&](bool) {
      std::vector<double> ref_acf;
      std::vector<double> ref_power;
      stats::SpectralWorkspace ws;
      stats::SpectralAnalysis spec;
      for (const auto& signal : signals) {
        stats::spectral_analysis(signal, max_lag, ws, spec);
        ref_acf.push_back(core::detail::max_acf_peak(spec.acf));
        ref_power.push_back(core::detail::max_power(spec.pgram_power));
      }
      // Every window of 1..4 consecutive signals, so each signal runs in
      // each lane position and in partial batches.
      for (std::size_t lanes = 1; lanes <= stats::kSpectralLanes; ++lanes) {
        for (std::size_t first = 0; first + lanes <= signals.size();
             ++first) {
          std::vector<const double*> ptrs;
          for (std::size_t l = 0; l < lanes; ++l)
            ptrs.push_back(signals[first + l].data());
          const auto got = stats::spectral_maxima(ptrs, n, max_lag, ws);
          for (std::size_t l = 0; l < lanes; ++l) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.acf_peak[l]),
                      std::bit_cast<std::uint64_t>(ref_acf[first + l]))
                << "n=" << n << " lanes=" << lanes << " signal "
                << first + l << " acf " << got.acf_peak[l] << " vs "
                << ref_acf[first + l];
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.power[l]),
                      std::bit_cast<std::uint64_t>(ref_power[first + l]))
                << "n=" << n << " lanes=" << lanes << " signal "
                << first + l;
          }
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

TEST(SimdKernels, AcfDirectMatchesBaselineAcrossLagCounts) {
  for (const std::size_t n : kLengths) {
    if (n == 0) continue;  // acf over an empty series never runs
    const auto x = random_doubles(n, 0x5ca1eu + n, 2.0);
    double energy = 0.0;
    for (const double v : x) energy += v * v;
    if (energy == 0.0) energy = 1.0;
    for (const std::size_t max_lag :
         {std::size_t{0}, std::size_t{1}, n / 2, n - 1}) {
      std::vector<double> expected(max_lag + 1);
      kernels::baseline::acf_direct(x.data(), n, max_lag, energy,
                                    expected.data());
      with_both_modes([&](bool) {
        std::vector<double> got(max_lag + 1);
        kernels::acf_direct(x.data(), n, max_lag, energy, got.data());
        EXPECT_TRUE(bits_equal(expected, got))
            << "n=" << n << " max_lag=" << max_lag;
      });
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

TEST(SimdKernels, MaxValueMatchesSerialFold) {
  for (const std::size_t n : kLengths) {
    const auto x = random_doubles(n, 0x3a7u + n, 9.0);
    double expected = -1.0;
    for (const double v : x) expected = std::max(expected, v);
    with_both_modes([&](bool) {
      const double got = kernels::max_value(x.data(), n, -1.0);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(expected),
                std::bit_cast<std::uint64_t>(got))
          << "n=" << n;
    });
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

TEST(SimdKernels, SplitmixBatchMatchesElementwise) {
  for (const std::size_t n : kLengths) {
    const auto keys = random_u64(n, 0x77u + n);
    for (const std::uint64_t salt :
         {std::uint64_t{0}, std::uint64_t{0x123456789abcdefULL}}) {
      std::vector<std::uint64_t> expected(n);
      kernels::baseline::splitmix_batch(keys.data(), n, salt,
                                        expected.data());
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(expected[i], stats::splitmix64(keys[i] ^ salt));
      with_both_modes([&](bool) {
        std::vector<std::uint64_t> got(n);
        kernels::splitmix_batch(keys.data(), n, salt, got.data());
        EXPECT_EQ(expected, got) << "n=" << n;
      });
    }
  }
}

TEST(SimdKernels, SketchAddBatchBitIdenticalToAddLoop) {
  const auto hashes = random_u64(4099, 0x40adu);
  with_both_modes([&](bool) {
    stream::HyperLogLog one_by_one(12);
    stream::HyperLogLog batched(12);
    for (const auto h : hashes) one_by_one.add(h);
    batched.add_batch(hashes.data(), hashes.size());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(one_by_one.estimate()),
              std::bit_cast<std::uint64_t>(batched.estimate()));
    // Idempotent-merge cross-check: merging the two must change neither.
    stream::HyperLogLog merged = one_by_one;
    merged.merge(batched);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(merged.estimate()),
              std::bit_cast<std::uint64_t>(one_by_one.estimate()));

    stream::CountMinSketch cms_loop(0.01, 0.01, 42);
    stream::CountMinSketch cms_batch(0.01, 0.01, 42);
    for (const auto h : hashes) cms_loop.add(h);
    cms_batch.add_batch(hashes.data(), hashes.size());
    EXPECT_EQ(cms_loop.total_weight(), cms_batch.total_weight());
    for (std::size_t i = 0; i < hashes.size(); i += 97)
      EXPECT_EQ(cms_loop.estimate(hashes[i]), cms_batch.estimate(hashes[i]));
  });
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
