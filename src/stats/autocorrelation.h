// Autocorrelation of uniformly sampled signals — the time-domain half of the
// paper's periodicity detector. Computed two ways: a direct O(n^2) reference
// (kept for tests) and, for the detector, the FFT route via the
// Wiener-Khinchin theorem in the lane kernel behind spectral_analysis and
// spectral_maxima, which yields the periodogram from the same transform.
#pragma once

#include <array>
#include <span>
#include <vector>

namespace jsoncdn::stats {

// Normalized autocorrelation r[k] for lags 0..max_lag of the mean-removed
// signal: r[0] == 1 when the signal has positive variance. A constant signal
// (every sample equal to the first) yields all-zero r: it is centred on its
// first sample, so no rounding of the mean leaves structure behind.
// Requires a non-empty signal; max_lag is clamped to size-1.
[[nodiscard]] std::vector<double> autocorrelation_direct(
    std::span<const double> signal, std::size_t max_lag);

// Indices k in [1, r.size()) that are strict local maxima of r (r[k] > r[k-1]
// and r[k] >= r[k+1]; the final lag qualifies when rising). Lag 0 never
// counts.
[[nodiscard]] std::vector<std::size_t> acf_peaks(std::span<const double> r);

// Fused ACF + periodogram from a single FFT of the zero-padded, mean-removed
// signal: the power spectrum |X|^2 *is* the (unnormalized) periodogram, and
// its inverse FFT is the autocorrelation (Wiener-Khinchin).
// `pgram_power[k]` corresponds to FFT bin k+1 of the padded signal
// (`padded_size` long): bin 0 (DC) is excluded because the mean carries no
// period. A constant signal has an all-zero ACF and periodogram.
struct SpectralAnalysis {
  std::vector<double> acf;          // lags 0..max_lag, normalized
  std::vector<double> pgram_power;  // bins 1..padded/2, scaled by 1/padded
  std::size_t padded_size = 0;

  [[nodiscard]] double pgram_period_samples(std::size_t k) const {
    return static_cast<double>(padded_size) / static_cast<double>(k + 1);
  }
};

// The lane kernel's buffer (lane-interleaved, aligned to a cache line),
// reused across calls: the permutation test runs ~100 spectral passes per
// flow over thousands of flows, so reusing it (and the output vectors)
// removes every per-permutation allocation from the hot loop. One workspace
// per thread — never shared.
struct SpectralWorkspace {
  std::vector<double> lanes;
};

// One lane of the spectral kernel (spectral_maxima with this signal alone).
// The overload with a workspace allocates nothing after warm-up; `out`'s
// vectors are reused. Throws std::invalid_argument for an empty signal.
[[nodiscard]] SpectralAnalysis spectral_analysis(std::span<const double> signal,
                                                 std::size_t max_lag);
void spectral_analysis(std::span<const double> signal, std::size_t max_lag,
                       SpectralWorkspace& ws, SpectralAnalysis& out);

// The permutation test reads only two numbers from each signal's spectral
// pass: the largest ACF value at a peak lag (acf_peaks; 0 when there is
// none) and the largest periodogram power (0-seeded). spectral_maxima
// computes them for up to kSpectralLanes equal-length signals at once,
// transforming them side by side in one vectorized pass
// (kernels::spectral_maxima4). acf_peak[l] and power[l] are bit-identical
// to the maxima of spectral_analysis(signals[l], max_lag), and so do not
// depend on which lane or batch a signal lands in. When `lane0` is
// non-null, the first signal's full spectral_analysis is written there too.
// Throws std::invalid_argument for an empty signal or a lane count outside
// 1..kSpectralLanes.
inline constexpr std::size_t kSpectralLanes = 4;

struct SpectralMaxima {
  std::array<double, kSpectralLanes> acf_peak{};
  std::array<double, kSpectralLanes> power{};
};

[[nodiscard]] SpectralMaxima spectral_maxima(
    std::span<const double* const> signals, std::size_t n,
    std::size_t max_lag, SpectralWorkspace& ws,
    SpectralAnalysis* lane0 = nullptr);

}  // namespace jsoncdn::stats
