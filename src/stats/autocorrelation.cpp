#include "stats/autocorrelation.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <stdexcept>

#include "stats/fft.h"
#include "stats/kernels.h"

namespace jsoncdn::stats {

namespace {

// Shared preamble: mean-centers and reports variance*n (the lag-0 raw value).
// Both reductions stay serial on purpose: their summation order is pinned by
// the committed periodicity golden fixture, and they are O(n) next to the
// O(n log n) transforms the kernels accelerate.
double center(std::span<const double> signal, std::vector<double>& out) {
  if (signal.empty())
    throw std::invalid_argument("autocorrelation: empty signal");
  double mean = 0.0;
  for (double v : signal) mean += v;
  mean /= static_cast<double>(signal.size());
  out.resize(signal.size());
  double energy = 0.0;
  for (std::size_t i = 0; i < signal.size(); ++i) {
    out[i] = signal[i] - mean;
    energy += out[i] * out[i];
  }
  return energy;
}

}  // namespace

std::vector<double> autocorrelation_direct(std::span<const double> signal,
                                           std::size_t max_lag) {
  std::vector<double> x;
  const double energy = center(signal, x);
  max_lag = std::min(max_lag, x.size() - 1);
  std::vector<double> r(max_lag + 1, 0.0);
  if (energy <= 0.0) return r;  // constant signal: no structure
  kernels::acf_direct(x.data(), x.size(), max_lag, energy, r.data());
  return r;
}

SpectralAnalysis spectral_analysis(std::span<const double> signal,
                                   std::size_t max_lag) {
  SpectralWorkspace ws;
  SpectralAnalysis out;
  spectral_analysis(signal, max_lag, ws, out);
  return out;
}

void spectral_analysis(std::span<const double> signal, std::size_t max_lag,
                       SpectralWorkspace& ws, SpectralAnalysis& out) {
  const double energy = center(signal, ws.centered);
  const auto& x = ws.centered;
  max_lag = std::min(max_lag, x.size() - 1);

  out.acf.assign(max_lag + 1, 0.0);

  const std::size_t padded = next_pow2(2 * x.size());
  out.padded_size = padded;
  ws.freq.assign(padded, std::complex<double>(0.0, 0.0));
  for (std::size_t i = 0; i < x.size(); ++i) ws.freq[i] = x[i];
  fft_inplace(ws.freq, /*inverse=*/false);
  kernels::complex_norm(ws.freq.data(), ws.freq.size());

  // Periodogram from the shared power spectrum.
  const std::size_t half = padded / 2;
  out.pgram_power.resize(half);
  kernels::pgram_extract(ws.freq.data(), half, static_cast<double>(padded),
                         out.pgram_power.data());
  if (energy <= 0.0) return;  // constant signal

  // Unscaled inverse transform, scaling applied per used lag (1/padded, then
  // the energy normalization).
  fft_inplace(ws.freq, /*inverse=*/true);
  const double scale = 1.0 / static_cast<double>(padded);
  kernels::acf_extract(ws.freq.data(), max_lag + 1, scale, energy,
                       out.acf.data());
}

SpectralMaxima spectral_maxima(std::span<const double* const> signals,
                               std::size_t n, std::size_t max_lag,
                               SpectralWorkspace& ws) {
  if (n == 0) throw std::invalid_argument("autocorrelation: empty signal");
  if (signals.empty() || signals.size() > kSpectralLanes)
    throw std::invalid_argument("spectral_maxima: 1 to 4 signals");
  const std::size_t padded = next_pow2(2 * n);
  const FftPlan& plan = fft_plan(padded);
  // Each point's eight doubles (four lanes, real then imaginary) fill one
  // 64-byte cache line only when the buffer starts on a line boundary;
  // malloc guarantees 16 bytes, and a misaligned buffer splits half the
  // kernel's loads and stores across two lines (~35 % slower per call).
  constexpr std::size_t kLine = 64 / sizeof(double);
  ws.lanes.resize(8 * padded + kLine);
  const auto address = reinterpret_cast<std::uintptr_t>(ws.lanes.data());
  double* work =
      ws.lanes.data() + (kLine - address / sizeof(double) % kLine) % kLine;
  SpectralMaxima out;
  kernels::spectral_maxima4(signals.data(), signals.size(), n, max_lag, padded,
                            plan.fwd.data(), plan.inv.data(),
                            plan.bitrev.data(), work, out.acf_peak.data(),
                            out.power.data());
  return out;
}

std::vector<std::size_t> acf_peaks(std::span<const double> r) {
  std::vector<std::size_t> peaks;
  for (std::size_t k = 1; k < r.size(); ++k) {
    const bool rising = r[k] > r[k - 1];
    const bool falling_next = (k + 1 >= r.size()) || r[k] >= r[k + 1];
    if (rising && falling_next) peaks.push_back(k);
  }
  return peaks;
}

}  // namespace jsoncdn::stats
