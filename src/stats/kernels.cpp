// Kernel dispatchers (scalar vs SIMD build, per stats/simd.h) plus the
// `baseline` reference loops. This TU is compiled with the project's default
// flags — exactly how the pre-kernel call sites were built — so the baseline
// loops measure what the code actually did before the kernel layer.
#include "stats/kernels.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <utility>

#include "stats/simd.h"

namespace jsoncdn::stats::kernels {

// The two builds of the shared bodies (kernels_impl.h). Declared here rather
// than in a header: nothing but the dispatchers below may call them.
#define JSONCDN_DECLARE_KERNELS(ns)                                           \
  namespace ns {                                                              \
  void spectral_maxima4(const double* const* signals, std::size_t lanes,      \
                        std::size_t n, std::size_t max_lag,                   \
                        std::size_t padded,                                   \
                        const std::complex<double>* fwd,                      \
                        const std::complex<double>* inv,                      \
                        const std::size_t* bitrev, double* work,              \
                        double* acf_peak, double* power, double* acf0,        \
                        double* pgram0);                                      \
  void bin_events(const double* times, std::size_t n, double t_begin,         \
                  double t_end, double dt, double* bins, std::size_t nbins);  \
  bool diff_ascending(const double* x, std::size_t n, double* out);           \
  void count_u32(const std::uint32_t* keys, const std::uint32_t* idx,         \
                 std::size_t n, std::uint64_t* counts, std::size_t n_keys);   \
  void count_enum8(const std::int32_t* vals, const std::uint32_t* idx,        \
                   std::size_t n, std::uint64_t* counts);                     \
  StatusBuckets count_status(const std::int32_t* status,                      \
                             const std::uint32_t* idx,                        \
                             std::size_t n) noexcept;                         \
  }

JSONCDN_DECLARE_KERNELS(kernels_scalar)
JSONCDN_DECLARE_KERNELS(kernels_simd)
#undef JSONCDN_DECLARE_KERNELS

void spectral_maxima4(const double* const* signals, std::size_t lanes,
                      std::size_t n, std::size_t max_lag, std::size_t padded,
                      const std::complex<double>* fwd,
                      const std::complex<double>* inv,
                      const std::size_t* bitrev, double* work,
                      double* acf_peak, double* power, double* acf0,
                      double* pgram0) {
  if (simd_enabled()) {
    kernels_simd::spectral_maxima4(signals, lanes, n, max_lag, padded, fwd,
                                   inv, bitrev, work, acf_peak, power, acf0,
                                   pgram0);
  } else {
    kernels_scalar::spectral_maxima4(signals, lanes, n, max_lag, padded, fwd,
                                     inv, bitrev, work, acf_peak, power, acf0,
                                     pgram0);
  }
}

void bin_events(const double* times, std::size_t n, double t_begin,
                double t_end, double dt, double* bins, std::size_t nbins) {
  if (simd_enabled()) {
    kernels_simd::bin_events(times, n, t_begin, t_end, dt, bins, nbins);
  } else {
    kernels_scalar::bin_events(times, n, t_begin, t_end, dt, bins, nbins);
  }
}

bool diff_ascending(const double* x, std::size_t n, double* out) {
  return simd_enabled() ? kernels_simd::diff_ascending(x, n, out)
                        : kernels_scalar::diff_ascending(x, n, out);
}

void count_u32(const std::uint32_t* keys, const std::uint32_t* idx,
               std::size_t n, std::uint64_t* counts, std::size_t n_keys) {
  if (simd_enabled()) {
    kernels_simd::count_u32(keys, idx, n, counts, n_keys);
  } else {
    kernels_scalar::count_u32(keys, idx, n, counts, n_keys);
  }
}

void count_enum8(const std::int32_t* vals, const std::uint32_t* idx,
                 std::size_t n, std::uint64_t* counts) {
  if (simd_enabled()) {
    kernels_simd::count_enum8(vals, idx, n, counts);
  } else {
    kernels_scalar::count_enum8(vals, idx, n, counts);
  }
}

StatusBuckets count_status(const std::int32_t* status,
                           const std::uint32_t* idx, std::size_t n) noexcept {
  return simd_enabled() ? kernels_simd::count_status(status, idx, n)
                        : kernels_scalar::count_status(status, idx, n);
}

// ---- baseline reference loops (pre-kernel shapes, default flags) ---------

namespace baseline {

void spectral_pass(const double* signal, std::size_t n, std::size_t max_lag,
                   std::size_t padded, std::complex<double>* buf, double* acf,
                   double* pgram) {
  // A signal whose samples all equal its first centres on that sample, as
  // stats::spectral_analysis documents.
  double mean = 0.0;
  bool constant = true;
  for (std::size_t i = 0; i < n; ++i) {
    mean += signal[i];
    constant = constant && signal[i] == signal[0];
  }
  mean = constant ? signal[0] : mean / static_cast<double>(n);
  double energy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = signal[i] - mean;
    buf[i] = {x, 0.0};
    energy += x * x;
  }
  for (std::size_t i = n; i < padded; ++i) buf[i] = {0.0, 0.0};
  // The radix-2 transform: bit-reversal swaps, then each butterfly stage
  // with its twiddles from the repeated multiplication w *= wlen.
  const auto transform = [&](bool inverse) {
    for (std::size_t i = 1, j = 0; i < padded; ++i) {
      std::size_t bit = padded >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(buf[i], buf[j]);
    }
    for (std::size_t len = 2; len <= padded; len <<= 1) {
      const double angle = 2.0 * std::numbers::pi /
                           static_cast<double>(len) * (inverse ? 1 : -1);
      const std::complex<double> wlen(std::cos(angle), std::sin(angle));
      for (std::size_t i = 0; i < padded; i += len) {
        std::complex<double> w(1.0, 0.0);
        for (std::size_t k = 0; k < len / 2; ++k) {
          const std::complex<double> u = buf[i + k];
          const std::complex<double> v = buf[i + k + len / 2] * w;
          buf[i + k] = u + v;
          buf[i + k + len / 2] = u - v;
          w *= wlen;
        }
      }
    }
  };
  transform(false);
  for (std::size_t i = 0; i < padded; ++i) {
    const double re = buf[i].real();
    const double im = buf[i].imag();
    buf[i] = {re * re + im * im, 0.0};
  }
  for (std::size_t k = 0; k < padded / 2; ++k)
    pgram[k] = buf[k + 1].real() / static_cast<double>(padded);
  const std::size_t last = std::min(max_lag, n - 1);
  if (energy <= 0.0) {  // constant signal
    std::fill(acf, acf + last + 1, 0.0);
    return;
  }
  transform(true);
  const double scale = 1.0 / static_cast<double>(padded);
  for (std::size_t k = 0; k <= last; ++k)
    acf[k] = (buf[k].real() * scale) / energy;
}

void bin_events(const double* times, std::size_t n, double t_begin,
                double t_end, double dt, double* bins, std::size_t nbins) {
  for (std::size_t i = 0; i < n; ++i) {
    const double t = times[i];
    if (t < t_begin || t >= t_end) continue;
    auto bin = static_cast<std::size_t>((t - t_begin) / dt);
    if (bin >= nbins) bin = nbins - 1;
    bins[bin] += 1.0;
  }
}

void count_u32(const std::uint32_t* keys, const std::uint32_t* idx,
               std::size_t n, std::uint64_t* counts, std::size_t n_keys) {
  (void)n_keys;
  if (idx != nullptr) {
    for (std::size_t i = 0; i < n; ++i) ++counts[keys[idx[i]]];
  } else {
    for (std::size_t i = 0; i < n; ++i) ++counts[keys[i]];
  }
}

StatusBuckets count_status(const std::int32_t* status,
                           const std::uint32_t* idx, std::size_t n) noexcept {
  StatusBuckets out;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t s = idx != nullptr ? status[idx[i]] : status[i];
    if (s >= 500) {
      ++out.server_error_5xx;
      if (s == 504) ++out.gateway_timeout_504;
    } else if (s >= 400) {
      ++out.client_error_4xx;
    } else if (s >= 300) {
      ++out.redirect_3xx;
    } else if (s >= 200) {
      ++out.ok_2xx;
    }
  }
  return out;
}

}  // namespace baseline

}  // namespace jsoncdn::stats::kernels
