// Autocorrelation of uniformly sampled signals — the time-domain half of the
// paper's periodicity detector. Computed two ways: a direct O(n^2) reference
// (kept for tests) and, for the detector, the FFT route via the
// Wiener-Khinchin theorem in spectral_analysis, which yields the periodogram
// from the same transform.
#pragma once

#include <array>
#include <complex>
#include <span>
#include <vector>

namespace jsoncdn::stats {

// Normalized autocorrelation r[k] for lags 0..max_lag of the mean-removed
// signal: r[0] == 1 when the signal has positive variance. A constant signal
// yields all-zero r (no periodic structure by definition). Requires a
// non-empty signal; max_lag is clamped to size-1.
[[nodiscard]] std::vector<double> autocorrelation_direct(
    std::span<const double> signal, std::size_t max_lag);

// Indices k in [1, r.size()) that are strict local maxima of r (r[k] > r[k-1]
// and r[k] >= r[k+1]; the final lag qualifies when rising). Lag 0 never
// counts.
[[nodiscard]] std::vector<std::size_t> acf_peaks(std::span<const double> r);

// Fused ACF + periodogram from a single FFT of the zero-padded, mean-removed
// signal: the power spectrum |X|^2 *is* the (unnormalized) periodogram, and
// its inverse FFT is the autocorrelation (Wiener-Khinchin). The periodicity
// detector runs this once per permutation, so sharing the forward FFT
// matters. `pgram_power[k]` corresponds to FFT bin k+1 of the padded signal
// (`padded_size` long): bin 0 (DC) is excluded because the mean carries no
// period.
struct SpectralAnalysis {
  std::vector<double> acf;          // lags 0..max_lag, normalized
  std::vector<double> pgram_power;  // bins 1..padded/2, scaled by 1/padded
  std::size_t padded_size = 0;

  [[nodiscard]] double pgram_period_samples(std::size_t k) const {
    return static_cast<double>(padded_size) / static_cast<double>(k + 1);
  }
};

[[nodiscard]] SpectralAnalysis spectral_analysis(std::span<const double> signal,
                                                 std::size_t max_lag);

// Reusable scratch for spectral_analysis: the centered copy of the signal
// and the complex FFT buffer. The periodicity detector's permutation test
// calls spectral_analysis ~100 times per flow over thousands of flows, so
// reusing these (and the output vectors) removes every per-permutation
// allocation from the hot loop. One workspace per thread — never shared.
struct SpectralWorkspace {
  std::vector<double> centered;
  std::vector<std::complex<double>> freq;
  std::vector<double> lanes;  // spectral_maxima's lane-interleaved buffer
};

// Allocation-free variant (after warm-up): identical results to the
// two-argument overload, written into `out` whose vectors are reused.
void spectral_analysis(std::span<const double> signal, std::size_t max_lag,
                       SpectralWorkspace& ws, SpectralAnalysis& out);

// The permutation test reads only two numbers from each shuffled signal's
// spectral pass: the largest ACF value at a peak lag (acf_peaks; 0 when
// there is none) and the largest periodogram power (0-seeded).
// spectral_maxima computes them for up to kSpectralLanes equal-length
// signals at once, transforming them side by side in one vectorized pass
// (kernels::spectral_maxima4). acf_peak[l] and power[l] are bit-identical
// to the maxima of spectral_analysis(signals[l], max_lag), and so do not
// depend on which lane or batch a signal lands in. Throws
// std::invalid_argument for an empty signal or a lane count outside
// 1..kSpectralLanes.
inline constexpr std::size_t kSpectralLanes = 4;

struct SpectralMaxima {
  std::array<double, kSpectralLanes> acf_peak{};
  std::array<double, kSpectralLanes> power{};
};

[[nodiscard]] SpectralMaxima spectral_maxima(
    std::span<const double* const> signals, std::size_t n,
    std::size_t max_lag, SpectralWorkspace& ws);

}  // namespace jsoncdn::stats
