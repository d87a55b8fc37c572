// Kernel bodies shared by the scalar and SIMD translation units. Each TU
// defines JSONCDN_KERNEL_NS (kernels_scalar / kernels_simd) and its own
// compile flags; the arithmetic graph below is identical in both, which is
// what makes the two dispatch paths bit-identical (see kernels.h).
//
// Vectorization strategy: loops are written in lane-blocked or mask-sum
// form — independent accumulator lanes with a fixed combine order — so the
// SIMD build's auto-vectorizer maps lanes onto vector elements without ever
// reassociating a serial reduction. Order-sensitive float sums (each spectral
// lane's mean and energy, bin increments) keep their original element order
// in both builds.
#ifndef JSONCDN_KERNEL_NS
#error "kernels_impl.h must be included with JSONCDN_KERNEL_NS defined"
#endif

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "stats/kernels.h"

namespace jsoncdn::stats::kernels {
namespace JSONCDN_KERNEL_NS {

namespace {

// Monotone bijection between finite doubles and uint64 (negatives reversed),
// so binary search over bin boundaries can halve the *representation* space.
inline std::uint64_t ordered_key(double x) noexcept {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return (b >> 63) ? ~b : (b | 0x8000000000000000ULL);
}

inline double ordered_unkey(std::uint64_t k) noexcept {
  const std::uint64_t b = (k >> 63) ? (k & 0x7fffffffffffffffULL) : ~k;
  double x;
  std::memcpy(&x, &b, sizeof(x));
  return x;
}

// Smallest double x in [t_begin, t_end] whose quotient (x - t_begin) / dt
// reaches kd, or t_end if none does. Uses the exact same subtract/divide
// expression as the per-element loop, so for integer kd >= 1 and quotients
// >= 0, `quotient >= kd` is equivalent to `trunc(quotient) >= kd` and the
// returned boundary reproduces the truncating cast's bin edges bit for bit.
// Seeded at the arithmetic edge t_begin + kd * dt and bracketed by galloping
// in representation space — the true edge is normally within a few ulps of
// the seed, so each edge costs a handful of divisions, not a full 64-step
// bisection (division latency chains would otherwise dominate).
inline double bin_edge(double t_begin, double t_end, double dt,
                       double kd) noexcept {
  if (!((t_end - t_begin) / dt >= kd)) return t_end;
  const std::uint64_t kb = ordered_key(t_begin);  // quotient 0 < kd
  std::uint64_t lo = kb;
  std::uint64_t hi = ordered_key(t_end);  // quotient >= kd
  double guess = t_begin + kd * dt;
  if (!(guess >= t_begin)) guess = t_begin;
  if (!(guess <= t_end)) guess = t_end;
  const std::uint64_t g = ordered_key(guess);
  std::uint64_t step = 1;
  if ((guess - t_begin) / dt >= kd) {
    hi = g;
    while (hi - lo >= step && hi - step > kb) {
      const std::uint64_t probe = hi - step;
      if ((ordered_unkey(probe) - t_begin) / dt >= kd) {
        hi = probe;
        step <<= 1;
      } else {
        lo = probe;
        break;
      }
    }
  } else {
    lo = g;
    while (hi - lo >= step) {
      const std::uint64_t probe = lo + step;
      if (probe >= hi) break;
      if ((ordered_unkey(probe) - t_begin) / dt >= kd) {
        hi = probe;
        break;
      }
      lo = probe;
      step <<= 1;
    }
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if ((ordered_unkey(mid) - t_begin) / dt >= kd) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return ordered_unkey(hi);
}

// First pointer in [p, hi) not less than e, assuming a sorted range, found
// by galloping: probes stay within the current bin's run, so the accesses
// are sequential-scale instead of whole-array bisection.
inline const double* gallop_lower_bound(const double* p, const double* hi,
                                        double e) noexcept {
  const auto count = static_cast<std::size_t>(hi - p);
  if (count == 0 || !(p[0] < e)) return p;
  std::size_t bound = 1;
  while (bound < count && p[bound] < e) bound <<= 1;
  const double* lo2 = p + (bound >> 1);  // p[bound >> 1] < e holds
  const double* hi2 = p + (bound < count ? bound : count);
  return std::lower_bound(lo2, hi2, e);
}

}  // namespace

void bin_events(const double* times, std::size_t n, double t_begin,
                double t_end, double dt, double* bins, std::size_t nbins) {
  constexpr std::size_t kBlock = 1024;
  // Sorted fast path. Flow event times arrive chronologically, and the bin
  // index min(trunc((t - t_begin) / dt), nbins - 1) is a monotone step
  // function of t (FP subtract, divide-by-positive, and truncation are all
  // monotone). So instead of dividing per element, binary-search the
  // smallest double that opens each bin — evaluating the identical quotient
  // expression, hence identical edges — and count each bin's run with a
  // two-pointer sweep: O(nbins log) divisions total instead of O(n).
  // NaN times are excluded by the finite-input contract (the per-element
  // loop would cast a NaN quotient, which is undefined).
  constexpr std::size_t kMinSortedN = 4096;
  if (n >= kMinSortedN && nbins >= 1 && n >= 8 * nbins && dt > 0.0 &&
      std::isfinite(dt) && std::isfinite(t_begin) && std::isfinite(t_end) &&
      t_begin < t_end) {
    bool sorted = true;
    for (std::size_t i = 1; i < n && sorted;) {
      // Violation count per block (vectorizes as a mask sum); early exit
      // keeps the cost negligible for genuinely unsorted inputs.
      const std::size_t stop = (n - i < 16384) ? n : i + 16384;
      std::uint32_t violations = 0;
      for (; i < stop; ++i)
        violations += static_cast<std::uint32_t>(times[i] < times[i - 1]);
      sorted = violations == 0;
    }
    if (sorted) {
      const double* const last = times + n;
      const double* p = std::lower_bound(times, last, t_begin);
      const double* const p_hi = std::lower_bound(p, last, t_end);
      const std::size_t top = nbins - 1;
      for (std::size_t k = 0; k < top && p != p_hi; ++k) {
        const double e =
            bin_edge(t_begin, t_end, dt, static_cast<double>(k + 1));
        const double* const p2 = gallop_lower_bound(p, p_hi, e);
        if (p2 != p) bins[k] += static_cast<double>(p2 - p);
        p = p2;
      }
      if (p != p_hi) bins[top] += static_cast<double>(p_hi - p);
      return;
    }
  }
  // Fast path: when bin indices fit an int32 (always, in practice), the
  // truncating cast and the top-edge clamp vectorize too — packed
  // double->int32 exists on every x86-64 baseline, packed double->uint64
  // does not. Out-of-window lanes blend to quotient 0.0 before the cast (so
  // the cast never sees an out-of-range value) and carry weight 0.0; adding
  // +0.0 to bins[0] leaves any count bit-identical because histogram counts
  // are never negative zero. In-window lanes add the same +1.0 in the same
  // ascending element order as the single-pass scalar loop.
  if (nbins <= (std::size_t{1} << 30)) {
    std::int32_t bin[kBlock];
    std::int32_t oki[kBlock];
    const auto top = static_cast<std::int32_t>(nbins - 1);
    // Large batches: scatter into four interleaved integer sub-histograms
    // (independent increment chains, cheap integer adds), then fold back.
    // Every count is an exact small integer, so the fold's u64 sums and the
    // final u64 -> double conversion reproduce the serial loop's doubles bit
    // for bit under the documented integer-count contract on `bins`.
    if (n >= 4 * nbins && nbins <= (std::size_t{1} << 20)) {
      std::vector<std::uint64_t> sub(4 * nbins, 0);
      std::uint64_t* c0 = sub.data();
      std::uint64_t* c1 = c0 + nbins;
      std::uint64_t* c2 = c1 + nbins;
      std::uint64_t* c3 = c2 + nbins;
      for (std::size_t base = 0; base < n; base += kBlock) {
        const std::size_t m = (n - base < kBlock) ? n - base : kBlock;
        for (std::size_t j = 0; j < m; ++j) {
          const double t = times[base + j];
          const double q = (t - t_begin) / dt;
          const bool ok = !(t < t_begin || t >= t_end);
          oki[j] = ok ? 1 : 0;
          const auto v = static_cast<std::int32_t>(ok ? q : 0.0);
          bin[j] = v > top ? top : v;
        }
        std::size_t j = 0;
        for (; j + 4 <= m; j += 4) {
          c0[static_cast<std::size_t>(bin[j])] +=
              static_cast<std::uint64_t>(oki[j]);
          c1[static_cast<std::size_t>(bin[j + 1])] +=
              static_cast<std::uint64_t>(oki[j + 1]);
          c2[static_cast<std::size_t>(bin[j + 2])] +=
              static_cast<std::uint64_t>(oki[j + 2]);
          c3[static_cast<std::size_t>(bin[j + 3])] +=
              static_cast<std::uint64_t>(oki[j + 3]);
        }
        for (; j < m; ++j) {
          c0[static_cast<std::size_t>(bin[j])] +=
              static_cast<std::uint64_t>(oki[j]);
        }
      }
      for (std::size_t s = 0; s < nbins; ++s) {
        bins[s] += static_cast<double>(c0[s] + c1[s] + c2[s] + c3[s]);
      }
      return;
    }
    double w[kBlock];
    for (std::size_t base = 0; base < n; base += kBlock) {
      const std::size_t m = (n - base < kBlock) ? n - base : kBlock;
      // Pass 1 (vectorizes): the division is unconditional — and the exact
      // scalar quotient `(t - t_begin) / dt`, never a reciprocal multiply,
      // so bin-edge rounding is identical — then out-of-window lanes blend
      // to quotient 0.0 BEFORE the truncating cast (the cast never sees an
      // out-of-range or NaN lane) and the clamp mirrors the scalar loop's
      // `if (bin >= nbins) bin = nbins - 1`.
      for (std::size_t j = 0; j < m; ++j) {
        const double t = times[base + j];
        const double q = (t - t_begin) / dt;
        const bool ok = !(t < t_begin || t >= t_end);
        w[j] = ok ? 1.0 : 0.0;
        const auto v = static_cast<std::int32_t>(ok ? q : 0.0);
        bin[j] = v > top ? top : v;
      }
      // Pass 2 (scalar scatter, ascending order preserved).
      for (std::size_t j = 0; j < m; ++j) {
        bins[static_cast<std::size_t>(bin[j])] += w[j];
      }
    }
    return;
  }
  // Histograms wider than 2^30 bins: two-pass form with the size_t cast
  // applied only to in-window quotients.
  double q[kBlock];
  std::uint8_t ok[kBlock];
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t m = (n - base < kBlock) ? n - base : kBlock;
    for (std::size_t j = 0; j < m; ++j) {
      const double t = times[base + j];
      q[j] = (t - t_begin) / dt;
      ok[j] = static_cast<std::uint8_t>(!(t < t_begin || t >= t_end));
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (!ok[j]) continue;
      auto bin = static_cast<std::size_t>(q[j]);
      if (bin >= nbins) bin = nbins - 1;  // top-edge float round-off
      bins[bin] += 1.0;
    }
  }
}

namespace {

// Four doubles, one per lane of the batched null pass (GCC vector
// extension). The SIMD build holds one in an AVX register, the scalar build
// in two SSE2 halves; either way each element is its own IEEE-754
// operation, so lane l evaluates exactly the single-signal expression. A
// plain four-iteration lane loop is not enough: GCC 12 leaves it scalar.
typedef double v4d __attribute__((vector_size(32)));

// Lane-interleaved complex buffer: point i holds the four lanes' real parts
// at work[8i .. 8i+3] and their imaginary parts at work[8i+4 .. 8i+7]. The
// helpers take vectors by reference: a v4d passed or returned by value
// would use a different calling convention in the two builds.
[[gnu::always_inline]] inline void load4(v4d& v, const double* p) noexcept {
  std::memcpy(&v, p, sizeof(v));
}

[[gnu::always_inline]] inline void store4(double* p, const v4d& v) noexcept {
  std::memcpy(p, &v, sizeof(v));
}

[[gnu::always_inline]] inline void splat4(v4d& v, double x) noexcept {
  v = v4d{x, x, x, x};
}

// One butterfly on one pair of points, four lanes at a time:
// (a, b) <- (a + w*b, a - w*b) with the naive complex product, which is
// std::complex's product on finite values.
[[gnu::always_inline]] inline void butterfly4(v4d& ar, v4d& ai, v4d& br,
                                              v4d& bi, const v4d& wr,
                                              const v4d& wi) noexcept {
  const v4d vr = br * wr - bi * wi;
  const v4d vi = br * wi + bi * wr;
  br = ar - vr;
  bi = ai - vi;
  ar = ar + vr;
  ai = ai + vi;
}

// Stages len = first, 2 first, ..., last of a transform over the `count`
// lane-interleaved points at `work` (count a multiple of `last`), with the
// plan's twiddles (stage len's len/2 entries start at index len/2 - 1).
// Stages run two at a time: a point quartet {p, p+h, p+2h, p+3h} of a
// 4h-point block is closed under stages len = 2h and 2len, so both stages'
// four butterflies on it run in registers, in the stage order a
// stage-by-stage pass would — the same operations on the same operands,
// with half the passes over the buffer. The twiddle index is the outer
// loop, so each broadcast serves every block.
void butterfly_stages(double* work, std::size_t count, std::size_t first,
                      std::size_t last, const double* tw) {
  std::size_t stages = 0;
  for (std::size_t len = first; len <= last; len <<= 1) ++stages;
  std::size_t len = first;
  if (stages % 2 == 1) {  // odd stage count: the first one runs alone
    const std::size_t h = len / 2;
    const double* w = tw + 2 * (h - 1);
    for (std::size_t k = 0; k < h; ++k) {
      v4d wr, wi;
      splat4(wr, w[2 * k]);
      splat4(wi, w[2 * k + 1]);
      for (std::size_t i = k; i < count; i += len) {
        double* a = work + 8 * i;
        v4d ar, ai, br, bi;
        load4(ar, a);
        load4(ai, a + 4);
        load4(br, a + 8 * h);
        load4(bi, a + 8 * h + 4);
        butterfly4(ar, ai, br, bi, wr, wi);
        store4(a, ar);
        store4(a + 4, ai);
        store4(a + 8 * h, br);
        store4(a + 8 * h + 4, bi);
      }
    }
    len <<= 1;
  }
  for (; len < last; len *= 4) {
    const std::size_t h = len / 2;
    const double* w1 = tw + 2 * (h - 1);    // stage len
    const double* w2 = tw + 2 * (len - 1);  // stage 2 * len
    for (std::size_t k = 0; k < h; ++k) {
      v4d ar, ai, br, bi, cr, ci;
      splat4(ar, w1[2 * k]);
      splat4(ai, w1[2 * k + 1]);
      splat4(br, w2[2 * k]);
      splat4(bi, w2[2 * k + 1]);
      splat4(cr, w2[2 * (k + h)]);
      splat4(ci, w2[2 * (k + h) + 1]);
      for (std::size_t i = k; i < count; i += 2 * len) {
        double* p = work + 8 * i;
        v4d r0, i0, r1, i1, r2, i2, r3, i3;
        load4(r0, p);
        load4(i0, p + 4);
        load4(r1, p + 8 * h);
        load4(i1, p + 8 * h + 4);
        load4(r2, p + 16 * h);
        load4(i2, p + 16 * h + 4);
        load4(r3, p + 24 * h);
        load4(i3, p + 24 * h + 4);
        butterfly4(r0, i0, r1, i1, ar, ai);  // stage len
        butterfly4(r2, i2, r3, i3, ar, ai);
        butterfly4(r0, i0, r2, i2, br, bi);  // stage 2 * len
        butterfly4(r1, i1, r3, i3, cr, ci);
        store4(p, r0);
        store4(p + 4, i0);
        store4(p + 8 * h, r1);
        store4(p + 8 * h + 4, i1);
        store4(p + 16 * h, r2);
        store4(p + 16 * h + 4, i2);
        store4(p + 24 * h, r3);
        store4(p + 24 * h + 4, i3);
      }
    }
  }
}

// Every butterfly stage of an n-point transform over the lane-interleaved
// buffer, already in bit-reversed order. A stage of width len only mixes
// points inside its len-point block, so the stages up to kBlockPoints run
// block by block while a block (16 KiB) sits in L1; the wider ones then
// sweep the whole buffer.
void butterflies4(double* work, std::size_t n,
                  const std::complex<double>* twiddles) {
  constexpr std::size_t kBlockPoints = 256;
  const double* tw = reinterpret_cast<const double*>(twiddles);
  const std::size_t block = n < kBlockPoints ? n : kBlockPoints;
  if (block < 2) return;
  for (std::size_t base = 0; base < n; base += block)
    butterfly_stages(work + 8 * base, block, 2, block, tw);
  if (2 * block <= n) butterfly_stages(work, n, 2 * block, n, tw);
}

}  // namespace

void spectral_maxima4(const double* const* signals, std::size_t lanes,
                      std::size_t n, std::size_t max_lag, std::size_t padded,
                      const std::complex<double>* fwd,
                      const std::complex<double>* inv,
                      const std::size_t* bitrev, double* work,
                      double* acf_peak, double* power, double* acf0,
                      double* pgram0) {
  const double* s[4];
  for (std::size_t l = 0; l < 4; ++l) s[l] = signals[l < lanes ? l : 0];
  const v4d zero = {0.0, 0.0, 0.0, 0.0};

  // Centring: each lane's mean and energy are serial sums in index order.
  // A lane whose samples all equal its first takes that sample as its mean,
  // so a constant centres to exact zeros whether or not its rounded mean
  // comes back exactly. The centred values go straight to their
  // bit-reversed slots, where the transform's swap pass would move them.
  const v4d first = {s[0][0], s[1][0], s[2][0], s[3][0]};
  auto constant = first == first;
  v4d sum = zero;
  for (std::size_t i = 0; i < n; ++i) {
    const v4d v = {s[0][i], s[1][i], s[2][i], s[3][i]};
    sum += v;
    constant &= v == first;
  }
  const v4d mean = constant ? first : sum / static_cast<double>(n);
  v4d energy = zero;
  for (std::size_t i = 0; i < n; ++i) {
    const v4d x = v4d{s[0][i], s[1][i], s[2][i], s[3][i]} - mean;
    energy += x * x;
    double* slot = work + 8 * bitrev[i];
    store4(slot, x);
    store4(slot + 4, zero);
  }
  for (std::size_t i = n; i < padded; ++i) {
    double* slot = work + 8 * bitrev[i];
    store4(slot, zero);
    store4(slot + 4, zero);
  }
  butterflies4(work, padded, fwd);

  // |X|^2, the periodogram (bin k over padded, bins 1..padded/2), its
  // maximum seeded with 0, and the inverse transform's bit reversal, in one
  // sweep. Powers are finite and non-negative, so the sweep's bin order
  // cannot change the maximum.
  const std::size_t half = padded / 2;
  const auto dpadded = static_cast<double>(padded);
  v4d pmax = zero;
  for (std::size_t i = 0; i < padded; ++i) {
    const std::size_t j = bitrev[i];
    if (j < i) continue;  // the pair was swapped at index j
    const std::size_t idx[2] = {i, j};
    v4d norm[2];
    for (std::size_t t = 0; t < 2; ++t) {
      v4d re, im;
      load4(re, work + 8 * idx[t]);
      load4(im, work + 8 * idx[t] + 4);
      norm[t] = re * re + im * im;
      if (idx[t] >= 1 && idx[t] <= half) {
        const v4d pw = norm[t] / dpadded;
        pmax = pmax < pw ? pw : pmax;
        if (pgram0 != nullptr) pgram0[idx[t] - 1] = pw[0];
      }
    }
    store4(work + 8 * i, norm[1]);
    store4(work + 8 * i + 4, zero);
    store4(work + 8 * j, norm[0]);
    store4(work + 8 * j + 4, zero);
  }
  butterflies4(work, padded, inv);

  // ACF lags 0..last (the inverse over padded, over the energy) and the
  // maximum over its peaks: lags k >= 1 with acf[k] > acf[k-1] and, unless
  // k is the last lag, acf[k] >= acf[k+1] (stats::acf_peaks). Seeded with
  // 0, so a signal without peaks reports 0.
  const std::size_t last = max_lag < n - 1 ? max_lag : n - 1;
  const double scale = 1.0 / dpadded;
  v4d best = zero;
  if (last >= 1) {
    v4d prev, cur, next;
    load4(prev, work);
    prev = (prev * scale) / energy;
    load4(cur, work + 8);
    cur = (cur * scale) / energy;
    for (std::size_t k = 1; k < last; ++k) {
      load4(next, work + 8 * (k + 1));
      next = (next * scale) / energy;
      const auto take = (cur > prev) & (cur >= next) & (best < cur);
      best = take ? cur : best;
      prev = cur;
      cur = next;
    }
    const auto take = (cur > prev) & (best < cur);
    best = take ? cur : best;
  }
  // A constant lane (energy 0) has an all-zero ACF and no peak.
  if (acf0 != nullptr) {
    for (std::size_t k = 0; k <= last; ++k)
      acf0[k] = energy[0] <= 0.0 ? 0.0 : (work[8 * k] * scale) / energy[0];
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    power[l] = pmax[l];
    acf_peak[l] = energy[l] <= 0.0 ? 0.0 : best[l];
  }
}

bool diff_ascending(const double* x, std::size_t n, double* out) {
  // Mask-sum of violations instead of early exit: the diff loop stays
  // branch-free and vectorizes; `x[i+1] < x[i]` (not >=) keeps the caller's
  // NaN behavior.
  std::size_t violations = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    out[i] = x[i + 1] - x[i];
    violations += static_cast<std::size_t>(x[i + 1] < x[i]);
  }
  return violations == 0;
}

namespace {

template <std::size_t kWays, bool kGather>
void count_u32_ways(const std::uint32_t* keys, const std::uint32_t* idx,
                    std::size_t n, std::uint64_t* counts, std::size_t n_keys) {
  // One cache line of padding between sub-tables: power-of-two dictionaries
  // would otherwise put every sub-table's copy of a hot key in the same L1
  // set.
  constexpr std::size_t kPad = 8;
  const std::size_t stride = n_keys + kPad;
  std::vector<std::uint64_t> extra((kWays - 1) * stride, 0);
  std::uint64_t* table[kWays];
  table[0] = counts;
  for (std::size_t w = 1; w < kWays; ++w)
    table[w] = extra.data() + (w - 1) * stride;
  std::size_t i = 0;
  for (; i + kWays <= n; i += kWays) {
    for (std::size_t w = 0; w < kWays; ++w) {
      const std::size_t j = i + w;
      ++table[w][kGather ? keys[idx[j]] : keys[j]];
    }
  }
  for (; i < n; ++i) ++counts[kGather ? keys[idx[i]] : keys[i]];
  for (std::size_t s = 0; s < n_keys; ++s) {
    std::uint64_t sum = 0;
    for (std::size_t w = 1; w < kWays; ++w) sum += table[w][s];
    counts[s] += sum;
  }
}

}  // namespace

void count_u32(const std::uint32_t* keys, const std::uint32_t* idx,
               std::size_t n, std::uint64_t* counts, std::size_t n_keys) {
  // Interleaved sub-tables when they fit comfortably in cache: u64 adds
  // commute, so folding the sub-tables back reproduces the single-table
  // totals exactly while multiplying the independent store chains. Hot-key
  // bursts (time-sorted CDN logs repeat the same object back-to-back)
  // serialise a single table on store-to-load forwarding; eight ways keep
  // even a pure single-key run's forwarding chains eight elements apart.
  constexpr std::size_t kMaxEightWayKeys = 2048;
  constexpr std::size_t kMaxMultiTableKeys = 4096;
  if (n_keys <= kMaxEightWayKeys && n >= 8 * n_keys) {
    if (idx != nullptr) {
      count_u32_ways<8, true>(keys, idx, n, counts, n_keys);
    } else {
      count_u32_ways<8, false>(keys, idx, n, counts, n_keys);
    }
    return;
  }
  if (n_keys <= kMaxMultiTableKeys && n >= 4 * n_keys) {
    if (idx != nullptr) {
      count_u32_ways<4, true>(keys, idx, n, counts, n_keys);
    } else {
      count_u32_ways<4, false>(keys, idx, n, counts, n_keys);
    }
    return;
  }
  if (idx != nullptr) {
    for (std::size_t i = 0; i < n; ++i) ++counts[keys[idx[i]]];
  } else {
    for (std::size_t i = 0; i < n; ++i) ++counts[keys[i]];
  }
}

namespace {

template <bool kGather>
void count_enum8_loop(const std::int32_t* vals, const std::uint32_t* idx,
                      std::size_t n, std::uint64_t* counts) {
  std::uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::uint64_t c4 = 0, c5 = 0, c6 = 0, c7 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t v = kGather ? vals[idx[i]] : vals[i];
    c0 += static_cast<std::uint64_t>(v == 0);
    c1 += static_cast<std::uint64_t>(v == 1);
    c2 += static_cast<std::uint64_t>(v == 2);
    c3 += static_cast<std::uint64_t>(v == 3);
    c4 += static_cast<std::uint64_t>(v == 4);
    c5 += static_cast<std::uint64_t>(v == 5);
    c6 += static_cast<std::uint64_t>(v == 6);
    c7 += static_cast<std::uint64_t>(v == 7);
  }
  counts[0] += c0;
  counts[1] += c1;
  counts[2] += c2;
  counts[3] += c3;
  counts[4] += c4;
  counts[5] += c5;
  counts[6] += c6;
  counts[7] += c7;
}

template <bool kGather>
StatusBuckets count_status_loop(const std::int32_t* status,
                                const std::uint32_t* idx,
                                std::size_t n) noexcept {
  StatusBuckets out;
  std::uint64_t b2 = 0, b3 = 0, b4 = 0, b5 = 0, b504 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t s = kGather ? status[idx[i]] : status[i];
    b2 += static_cast<std::uint64_t>(s >= 200 && s < 300);
    b3 += static_cast<std::uint64_t>(s >= 300 && s < 400);
    b4 += static_cast<std::uint64_t>(s >= 400 && s < 500);
    b5 += static_cast<std::uint64_t>(s >= 500);
    b504 += static_cast<std::uint64_t>(s == 504);
  }
  out.ok_2xx = b2;
  out.redirect_3xx = b3;
  out.client_error_4xx = b4;
  out.server_error_5xx = b5;
  out.gateway_timeout_504 = b504;
  return out;
}

}  // namespace

void count_enum8(const std::int32_t* vals, const std::uint32_t* idx,
                 std::size_t n, std::uint64_t* counts) {
  if (idx != nullptr) {
    count_enum8_loop<true>(vals, idx, n, counts);
  } else {
    count_enum8_loop<false>(vals, idx, n, counts);
  }
}

StatusBuckets count_status(const std::int32_t* status,
                           const std::uint32_t* idx, std::size_t n) noexcept {
  return idx != nullptr ? count_status_loop<true>(status, idx, n)
                        : count_status_loop<false>(status, idx, n);
}

}  // namespace JSONCDN_KERNEL_NS
}  // namespace jsoncdn::stats::kernels
