// Hot analysis kernels over the columnar store, compiled twice — a scalar
// build (auto-vectorization off) and a SIMD build (vectorization forced on,
// AVX2 when the toolchain has it) — and dispatched at runtime through
// stats/simd.h. Both builds compile the *identical* arithmetic graph with FP
// contraction disabled, so every kernel here, float ones included, returns
// bit-identical results under either dispatch path. See DESIGN.md §14 for
// the per-kernel exactness contract and the lane-blocking strategy.
//
// Conventions:
//  - `idx` parameters are optional row-index gathers (TableView selections);
//    pass nullptr to walk the array directly.
//  - Counting kernels ACCUMULATE into caller-provided tallies (callers zero
//    them once per shard), so parallel_reduce shards can reuse buffers.
//  - Kernels assume finite float inputs on the paths where the pre-kernel
//    code assumed the same (documented per kernel).
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

namespace jsoncdn::stats::kernels {

// ---- Float kernels -------------------------------------------------------

// One radix-2 Cooley-Tukey butterfly stage of width `len` over `n` complex
// points. `twiddles` holds the stage's len/2 twiddle factors, generated by
// the same repeated-multiplication chain the pre-table code ran (fft.cpp),
// so results are bit-identical to the original serial butterfly for finite
// data. Complex multiply is the naive (ac-bd, ad+bc) form — identical to
// __muldc3 on finite values.
void fft_pass(std::complex<double>* data, std::size_t n, std::size_t len,
              const std::complex<double>* twiddles);

// v[i] = |v[i]|^2 (re*re + im*im, imaginary part zeroed), elementwise.
void complex_norm(std::complex<double>* data, std::size_t n);

// out[k] = freq[k + 1].real() / padded, k = 0..count-1 (periodogram bins,
// DC excluded). Division kept — not reciprocal-multiplied — for exactness.
void pgram_extract(const std::complex<double>* freq, std::size_t count,
                   double padded, double* out);

// out[k] = (corr[k].real() * scale) / energy, k = 0..count-1 (ACF lags).
void acf_extract(const std::complex<double>* corr, std::size_t count,
                 double scale, double energy, double* out);

// Direct autocorrelation: r[k] = (sum_i x[i]*x[i+k]) / energy for
// k = 0..max_lag. Each lag's sum runs in ascending-i order exactly as the
// serial code did; lags are blocked four at a time so the block vectorizes
// across lags, never across the (order-sensitive) i dimension.
void acf_direct(const double* x, std::size_t n, std::size_t max_lag,
                double energy, double* r);

// Batched null pass of the §5.1 permutation test: for each of the first
// `lanes` (1..4) signals, all `n` long, the two maxima the test reads from
// spectral_analysis(signal, max_lag) — acf_peak[l], the largest ACF value
// at a peak lag (stats::acf_peaks; 0 when there is none or the signal is
// constant), and power[l], the largest periodogram power (0-seeded). The
// four transforms run side by side, one lane per signal: every lane
// evaluates the single-signal path's exact expressions (serial index-order
// mean and energy, the plan's twiddles, fft_pass's butterfly, complex_norm,
// pgram_extract, acf_extract), so each lane's maxima are bit-identical to
// it. `padded` is next_pow2(2 * n); fwd, inv and bitrev come from
// fft_plan(padded); `work` holds 8 * padded doubles.
void spectral_maxima4(const double* const* signals, std::size_t lanes,
                      std::size_t n, std::size_t max_lag, std::size_t padded,
                      const std::complex<double>* fwd,
                      const std::complex<double>* inv,
                      const std::size_t* bitrev, double* work,
                      double* acf_peak, double* power);

// Time-binning: bins[(t - t_begin) / dt] += 1.0 for every t in
// [t_begin, t_end), bin clamped to nbins-1 against top-edge round-off.
// The quotient is always the exact division (never a reciprocal multiply),
// so bin-edge rounding matches the single-pass scalar loop bit for bit.
// Strategy by input shape: chronologically sorted times take a boundary
// search + galloping count (O(nbins log) divisions instead of O(n)); large
// unsorted batches scatter into interleaved integer sub-histograms; small
// batches use a vectorized quotient pass with a serial scatter.
// Contract: `times` are finite (a NaN would reach the truncating cast) and
// `bins` holds nbins non-negative exact-integer counts below 2^52 —
// typically zeroed; increments accumulate. Under that contract every
// strategy adds the same exact integers, so the result is bit-identical
// regardless of accumulation order.
void bin_events(const double* times, std::size_t n, double t_begin,
                double t_end, double dt, double* bins, std::size_t nbins);

// Max-reduction seeded with `init`. Lane-blocked; exact for inputs free of
// NaN and mixed-sign zeros (true of ACF/periodogram powers), where max is
// order-independent.
[[nodiscard]] double max_value(const double* x, std::size_t n,
                               double init) noexcept;

// out[i] = x[i+1] - x[i] for i = 0..n-2 (interarrival gaps). Returns false
// if any adjacent pair has x[i+1] < x[i] (the caller's not-ascending error);
// gaps are still fully written in that case.
bool diff_ascending(const double* x, std::size_t n, double* out);

// ---- Integer kernels (exact, bit-identical by commutativity) -------------

// counts[key] += 1 for each key (gathered through idx when non-null).
// Requires every key < n_keys. Splits into eight (small dictionaries) or
// four interleaved, cache-line-padded sub-tables when they stay
// cache-resident, breaking the store-to-load-forwarding chain that
// serializes skewed symbol streams.
void count_u32(const std::uint32_t* keys, const std::uint32_t* idx,
               std::size_t n, std::uint64_t* counts, std::size_t n_keys);

// Tally of a small int enum column (values in [0, 8)): counts[v] += #v.
// Formulated as eight independent compare-mask sums so it vectorizes
// without a scatter. `vals` is the int32 backing of the enum column.
void count_enum8(const std::int32_t* vals, const std::uint32_t* idx,
                 std::size_t n, std::uint64_t* counts);

// HTTP status classing, one pass of compare-mask sums.
struct StatusBuckets {
  std::uint64_t ok_2xx = 0;
  std::uint64_t redirect_3xx = 0;
  std::uint64_t client_error_4xx = 0;
  std::uint64_t server_error_5xx = 0;
  std::uint64_t gateway_timeout_504 = 0;
};
[[nodiscard]] StatusBuckets count_status(const std::int32_t* status,
                                         const std::uint32_t* idx,
                                         std::size_t n) noexcept;

// out[i] = splitmix64(keys[i] ^ salt): the batched form of the sketch
// finalizer (HyperLogLog: salt = 0; CountMin: salt = the per-row seed mix).
void splitmix_batch(const std::uint64_t* keys, std::size_t n,
                    std::uint64_t salt, std::uint64_t* out);

// ---- Pre-kernel reference loops ------------------------------------------
// The loop shapes the call sites ran before the kernel layer existed,
// compiled with the build's default flags exactly like the originals were.
// They are the denominators of the `--kernels` benchmark ratios and the
// oracles of the equivalence tests; production code never calls them.
namespace baseline {

// Original fft_inplace butterfly stage: serial w *= wlen twiddle chain.
void fft_pass(std::complex<double>* data, std::size_t n, std::size_t len,
              bool inverse);
// Original per-lag serial autocorrelation.
void acf_direct(const double* x, std::size_t n, std::size_t max_lag,
                double energy, double* r);
// Original single-pass branchy time-binning loop.
void bin_events(const double* times, std::size_t n, double t_begin,
                double t_end, double dt, double* bins, std::size_t nbins);
// Original single-table symbol counting loop.
void count_u32(const std::uint32_t* keys, const std::uint32_t* idx,
               std::size_t n, std::uint64_t* counts, std::size_t n_keys);
// Original branchy status classing loop.
[[nodiscard]] StatusBuckets count_status(const std::int32_t* status,
                                         const std::uint32_t* idx,
                                         std::size_t n) noexcept;
// Element-at-a-time splitmix64 (the sketch add() loop shape).
void splitmix_batch(const std::uint64_t* keys, std::size_t n,
                    std::uint64_t salt, std::uint64_t* out);

}  // namespace baseline

}  // namespace jsoncdn::stats::kernels
