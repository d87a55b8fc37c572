// Radix-2 FFT plans, implemented from scratch (no external DSP dependency).
// The transform itself is the lane kernel kernels::spectral_maxima4, which
// the periodicity detector (§5.1 of the paper) reaches through
// spectral_analysis and spectral_maxima (stats/autocorrelation.h); they
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

// What an n-point transform reuses across calls: the per-stage twiddle
// factors, concatenated in stage order (len = 2, 4, ..., n; len/2 entries
// each), and the bit-reversal permutation (bitrev[i] is i with its log2(n)
// bits reversed). Every transform of one size reads the same plan, so its
// twiddles are the same bits in every call.
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
