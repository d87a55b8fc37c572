#include "stats/fft.h"

#include <cmath>
#include <limits>
#include <numbers>

namespace jsoncdn::stats {

namespace {

// Each stage's twiddles come from the same repeated-multiplication chain
// (w = 1; w *= wlen) the pre-table butterfly loop ran
// (kernels::baseline::spectral_pass still runs it), so table[k] is
// bit-identical to the w the original code used at that (stage, k) —
// table-driven butterflies reproduce the serial output exactly while freeing
// the k-loop from the loop-carried multiply.
void build_plan(FftPlan& plan, std::size_t n) {
  plan.n = n;
  plan.fwd.clear();
  plan.inv.clear();
  plan.fwd.reserve(n);
  plan.inv.reserve(n);
  for (int direction = 0; direction < 2; ++direction) {
    const bool inverse = direction == 1;
    auto& out = inverse ? plan.inv : plan.fwd;
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double angle = 2.0 * std::numbers::pi / static_cast<double>(len) *
                           (inverse ? 1 : -1);
      const std::complex<double> wlen(std::cos(angle), std::sin(angle));
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        out.push_back(w);
        w *= wlen;
      }
    }
  }
  plan.bitrev.assign(n, 0);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    plan.bitrev[i] = j;
  }
}

}  // namespace

std::size_t next_pow2(std::size_t n) noexcept {
  constexpr std::size_t kTopBit =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  if (n > kTopBit) return 0;  // no representable power of two >= n
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

const FftPlan& fft_plan(std::size_t n) {
  // The permutation test runs hundreds of same-size transforms per flow, so
  // one plan per thread, rebuilt only when the size changes, is enough.
  thread_local FftPlan plan;
  if (plan.n != n) build_plan(plan, n);
  return plan;
}

}  // namespace jsoncdn::stats
