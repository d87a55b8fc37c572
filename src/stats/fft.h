// Radix-2 FFT and periodogram, implemented from scratch (no external DSP
// dependency). The periodicity detector (§5.1 of the paper) uses the
// periodogram on the frequency domain side and an FFT-accelerated
// autocorrelation on the time domain side.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace jsoncdn::stats {

// Returns the smallest power of two >= n (n = 0 maps to 1). When no such
// power is representable in std::size_t (n > 2^(bits-1)), returns 0 instead
// of looping forever on the shift overflow.
[[nodiscard]] std::size_t next_pow2(std::size_t n) noexcept;

// In-place iterative radix-2 Cooley-Tukey FFT. Requires data.size() to be a
// power of two (throws std::invalid_argument otherwise). `inverse` computes
// the unscaled inverse transform; callers divide by N if they need the true
// inverse (ifft() below does this).
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

// Forward FFT of a real signal, zero-padded to the next power of two.
[[nodiscard]] std::vector<std::complex<double>> fft_real(
    std::span<const double> signal);

// True inverse FFT (scaled by 1/N). Requires power-of-two size.
[[nodiscard]] std::vector<std::complex<double>> ifft(
    std::vector<std::complex<double>> data);

// Periodogram: squared magnitude of FFT bins 1..N/2 of the mean-removed,
// zero-padded signal, normalized by N. Index k of the returned vector
// corresponds to FFT bin k+1, i.e. frequency (k+1) / (N * dt) with N the
// padded length. Bin 0 (DC) is excluded because the mean carries no period.
struct Periodogram {
  std::vector<double> power;  // power[k] for FFT bin k+1
  std::size_t padded_size = 0;

  // Frequency (cycles per sample) of entry k.
  [[nodiscard]] double frequency(std::size_t k) const {
    return static_cast<double>(k + 1) / static_cast<double>(padded_size);
  }
  // Period in samples of entry k.
  [[nodiscard]] double period(std::size_t k) const {
    return static_cast<double>(padded_size) / static_cast<double>(k + 1);
  }
};

// Requires a non-empty signal.
[[nodiscard]] Periodogram periodogram(std::span<const double> signal);

}  // namespace jsoncdn::stats
