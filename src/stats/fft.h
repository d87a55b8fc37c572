// Radix-2 FFT, implemented from scratch (no external DSP dependency). The
// periodicity detector (§5.1 of the paper) reaches it through
// spectral_analysis and spectral_maxima (stats/autocorrelation.h), which
// derive the periodogram and the autocorrelation from one transform.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace jsoncdn::stats {

// Returns the smallest power of two >= n (n = 0 maps to 1). When no such
// power is representable in std::size_t (n > 2^(bits-1)), returns 0 instead
// of looping forever on the shift overflow.
[[nodiscard]] std::size_t next_pow2(std::size_t n) noexcept;

// In-place iterative radix-2 Cooley-Tukey FFT. Requires data.size() to be a
// power of two (throws std::invalid_argument otherwise). `inverse` computes
// the unscaled inverse transform; callers divide by N if they need the true
// inverse.
void fft_inplace(std::vector<std::complex<double>>& data, bool inverse);

// What an n-point transform reuses across calls: the per-stage twiddle
// factors, concatenated in stage order (len = 2, 4, ..., n; len/2 entries
// each), and the bit-reversal permutation (bitrev[i] is i with its log2(n)
// bits reversed). fft_inplace and the batched null kernel both read it, so
// every transform of one size uses the same twiddles bit for bit.
struct FftPlan {
  std::size_t n = 0;
  std::vector<std::complex<double>> fwd;
  std::vector<std::complex<double>> inv;
  std::vector<std::size_t> bitrev;
};

// The plan for an n-point transform (n a power of two), cached per thread
// and rebuilt only when n changes. The reference stays valid until the
// calling thread asks for another size.
[[nodiscard]] const FftPlan& fft_plan(std::size_t n);

}  // namespace jsoncdn::stats
