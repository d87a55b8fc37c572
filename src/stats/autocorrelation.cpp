#include "stats/autocorrelation.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "stats/fft.h"
#include "stats/kernels.h"

namespace jsoncdn::stats {

namespace {

// Mean-centres `signal` into `out` and returns the energy (variance * n, the
// lag-0 raw value). A signal whose samples all equal its first is centred on
// that sample, so it centres to exact zeros. Serial sums in index order, as
// the spectral kernel computes them per lane.
double center(std::span<const double> signal, std::vector<double>& out) {
  if (signal.empty())
    throw std::invalid_argument("autocorrelation: empty signal");
  double mean = 0.0;
  bool constant = true;
  for (const double v : signal) {
    mean += v;
    constant = constant && v == signal[0];
  }
  mean = constant ? signal[0] : mean / static_cast<double>(signal.size());
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
  for (std::size_t k = 0; k <= max_lag; ++k) {
    double acc = 0.0;
    for (std::size_t i = 0; i + k < x.size(); ++i) acc += x[i] * x[i + k];
    r[k] = acc / energy;
  }
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
  const double* lane = signal.data();
  (void)spectral_maxima(std::span(&lane, 1), signal.size(), max_lag, ws, &out);
}

SpectralMaxima spectral_maxima(std::span<const double* const> signals,
                               std::size_t n, std::size_t max_lag,
                               SpectralWorkspace& ws, SpectralAnalysis* lane0) {
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
  double* acf0 = nullptr;
  double* pgram0 = nullptr;
  if (lane0 != nullptr) {
    lane0->acf.resize(std::min(max_lag, n - 1) + 1);
    lane0->pgram_power.resize(padded / 2);
    lane0->padded_size = padded;
    acf0 = lane0->acf.data();
    pgram0 = lane0->pgram_power.data();
  }
  SpectralMaxima out;
  kernels::spectral_maxima4(signals.data(), signals.size(), n, max_lag, padded,
                            plan.fwd.data(), plan.inv.data(),
                            plan.bitrev.data(), work, out.acf_peak.data(),
                            out.power.data(), acf0, pgram0);
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
