#include "core/period_detector.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/periodicity_internal.h"
#include "stats/autocorrelation.h"

namespace jsoncdn::core {

namespace {

// Shared input contract: every timestamp finite, sequence non-decreasing.
// Rejection happens before any strategy code runs so all strategies agree
// on malformed input, bit-for-bit, regardless of thread count.
bool valid_times(std::span<const double> times) noexcept {
  double prev = -std::numeric_limits<double>::infinity();
  for (const double t : times) {
    if (!std::isfinite(t)) return false;
    if (t < prev) return false;
    prev = t;
  }
  return true;
}

// Parabolic (three-point) peak interpolation: sub-bin offset of the apex
// through (y0, y1, y2) with y1 the discrete peak. Clamped to half a bin.
double parabolic_offset(double y0, double y1, double y2) {
  const double denom = y0 - 2.0 * y1 + y2;
  if (denom == 0.0) return 0.0;
  return std::clamp(0.5 * (y0 - y2) / denom, -0.5, 0.5);
}

// True when `period` is a near-multiple or near-divisor of a period already
// accepted: one harmonic family reports once.
bool in_family(const std::vector<PeriodDetection>& accepted, double period,
               double tolerance) {
  return std::any_of(accepted.begin(), accepted.end(),
                     [&](const PeriodDetection& det) {
                       return detail::near_multiple(period, det.period_seconds,
                                                    tolerance);
                     });
}

// The one parameter check every strategy shares, over the two settable
// fields; the rest of DetectorParams is constant.
void check_params(const DetectorParams& params) {
  if (params.sample_interval <= 0.0)
    throw std::invalid_argument("DetectorParams: sample_interval <= 0");
  if (params.permutations < 2)
    throw std::invalid_argument("DetectorParams: permutations < 2");
}

}  // namespace

PeriodDetector::PeriodDetector(const DetectorParams& params)
    : params_(params) {
  check_params(params_);
}

bool PeriodDetector::periods_match(double a, double b) const noexcept {
  return detail::relative_periods_match(a, b, params_.period_match_tolerance);
}

PeriodDetection PeriodDetector::detect(std::span<const double> times,
                                       stats::Rng& rng) const {
  DetectScratch scratch;
  return detect(times, rng, scratch);
}

PeriodDetection PeriodDetector::detect(std::span<const double> times,
                                       stats::Rng& rng,
                                       DetectScratch& scratch) const {
  const auto all = detect_all(times, rng, 1, scratch);
  if (!all.empty()) return all.front();
  return PeriodDetection{};
}

std::vector<PeriodDetection> PeriodDetector::detect_all(
    std::span<const double> times, stats::Rng& rng,
    std::size_t max_periods) const {
  DetectScratch scratch;
  return detect_all(times, rng, max_periods, scratch);
}

std::vector<PeriodDetection> PeriodDetector::detect_all(
    std::span<const double> times, stats::Rng& rng, std::size_t max_periods,
    DetectScratch& scratch) const {
  if (max_periods == 0 || !valid_times(times)) return {};
  return do_detect_all(times, rng, max_periods, scratch);
}

// ---- acf-fft (the paper's default) ---------------------------------------

namespace {

// The paper's §5.1 pipeline: bin the flow, run the spectral pass and the
// permutation null, then pick the fundamentals among the matched lags.
class AcfFftDetector final : public PeriodDetector {
 public:
  using PeriodDetector::PeriodDetector;

  std::string_view name() const noexcept override { return "acf-fft"; }

 protected:
  std::vector<PeriodDetection> do_detect_all(std::span<const double> times,
                                             stats::Rng& rng,
                                             std::size_t max_periods,
                                             DetectScratch& s) const override {
    std::vector<PeriodDetection> out;
    const auto binned = detail::bin_flow(params(), times, s.signal);
    if (!binned.usable) return out;
    const auto analysis =
        detail::analyze_signal(params(), s.signal, binned.dt, binned.span,
                               binned.max_lag, rng, s);
    if (analysis.matches.empty()) return out;
    detail::pick_fundamentals(analysis, params().period_match_tolerance,
                              max_periods, out);
    return out;
  }
};

// ---- lomb-scargle --------------------------------------------------------

// Schuster/Rayleigh event periodogram over raw timestamps: for unit-weight
// events the classic Lomb-Scargle statistic degenerates to
// P(f) = |sum_j exp(-2*pi*i*f*t_j)|^2 / n, which under a homogeneous
// Poisson null is Exp(1)-distributed per frequency. No binning means
// jitter and dropout shift phases slightly instead of smearing counts
// across bins, which is exactly where the binned default loses power.
class LombScargleDetector final : public PeriodDetector {
 public:
  using PeriodDetector::PeriodDetector;

  std::string_view name() const noexcept override { return "lomb-scargle"; }

 protected:
  std::vector<PeriodDetection> do_detect_all(std::span<const double> times,
                                             stats::Rng& /*rng*/,
                                             std::size_t max_periods,
                                             DetectScratch& s) const override {
    const DetectorParams& params = this->params();
    std::vector<PeriodDetection> out;
    if (times.size() < params.min_requests) return out;
    const double span = times.back() - times.front();
    if (span <= params.sample_interval * 4.0) return out;

    // Dense flows are strided down to the event cap: every k-th event keeps
    // the span (and the fundamental's spectral line) while bounding the
    // O(n * M) scan. Flows this dense are far past the cap's resolution
    // needs anyway.
    s.rel.clear();
    const std::size_t stride =
        (times.size() + params.ls_max_events - 1) / params.ls_max_events;
    for (std::size_t i = 0; i < times.size(); i += stride)
      s.rel.push_back(times[i] - times.front());
    const std::size_t m = s.rel.size();
    if (m < params.min_requests) return out;

    // Frequency grid: periods from span/min_cycles (trust floor, same as
    // the default detector) down to twice the jitter floor or a quarter of
    // the mean gap, whichever is coarser — below the mean gap the grid only
    // chases harmonics. Oversampled by ls_oversample relative to the
    // natural resolution 1/span; coarsened, never truncated, past the cap.
    const double f_min = params.min_cycles / span;
    const double mean_gap = span / static_cast<double>(m - 1);
    const double f_max =
        1.0 / std::max(2.0 * params.sample_interval, 0.25 * mean_gap);
    if (f_max <= f_min) return out;
    double df = 1.0 / (params.ls_oversample * span);
    std::size_t grid = static_cast<std::size_t>(
                           std::floor((f_max - f_min) / df)) + 1;
    if (grid > params.ls_max_frequencies) {
      grid = params.ls_max_frequencies;
      df = (f_max - f_min) / static_cast<double>(grid - 1);
    }
    if (grid < 4) return out;

    // Phasor recurrence: exp(-2*pi*i*(f_min + k*df)*t) advances by a fixed
    // per-event rotation w = exp(-2*pi*i*df*t) each frequency step, so the
    // whole scan needs one sincos pair per event instead of one per
    // (event, frequency) cell.
    s.acc.assign(grid, {0.0, 0.0});
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    for (const double t : s.rel) {
      std::complex<double> z = std::polar(1.0, -kTwoPi * f_min * t);
      const std::complex<double> w = std::polar(1.0, -kTwoPi * df * t);
      for (std::size_t k = 0; k < grid; ++k) {
        s.acc[k] += z;
        z *= w;
      }
    }
    s.power.resize(grid);
    for (std::size_t k = 0; k < grid; ++k)
      s.power[k] = std::norm(s.acc[k]) / static_cast<double>(m);

    // Analytic Poisson-null threshold at the same family-wise level as the
    // default's permutation test (alpha = 1/permutations): each P(f) is
    // Exp(1) under the null, so the max over `grid` bins exceeds z* with
    // probability alpha at z* = -ln(1 - (1 - alpha)^(1/grid)). A
    // gap-shuffle permutation null is unusable here — a clean periodic
    // flow's near-constant gaps reproduce the flow under any shuffle.
    const double alpha = 1.0 / static_cast<double>(params.permutations);
    const double threshold =
        -std::log(1.0 -
                  std::pow(1.0 - alpha, 1.0 / static_cast<double>(grid)));

    s.masked.assign(grid, 0);
    while (out.size() < max_periods) {
      // Strongest unmasked significant interior local maximum.
      std::size_t best_k = grid;
      for (std::size_t k = 1; k + 1 < grid; ++k) {
        if (s.masked[k] != 0) continue;
        if (s.power[k] <= threshold) continue;
        if (s.power[k] < s.power[k - 1] || s.power[k] < s.power[k + 1])
          continue;
        if (best_k == grid || s.power[k] > s.power[best_k]) best_k = k;
      }
      if (best_k == grid) break;

      // Fundamental-vs-harmonic: in multi-client aggregates the strongest
      // line is often a harmonic of the true period. If a subharmonic
      // f/m carries comparable significant power, prefer it — the largest
      // such m is the fundamental.
      std::size_t chosen = best_k;
      const double peak_power = s.power[best_k];
      for (std::size_t m_div = 8; m_div >= 2; --m_div) {
        const double f_sub =
            (f_min + static_cast<double>(best_k) * df) /
            static_cast<double>(m_div);
        if (f_sub < f_min) continue;
        const auto center = static_cast<std::ptrdiff_t>(
            std::llround((f_sub - f_min) / df));
        std::size_t sub_k = grid;
        for (std::ptrdiff_t j = center - 2; j <= center + 2; ++j) {
          if (j < 1 || j + 1 >= static_cast<std::ptrdiff_t>(grid)) continue;
          const auto k = static_cast<std::size_t>(j);
          if (s.power[k] <= threshold) continue;
          if (s.power[k] < 0.6 * peak_power) continue;
          if (s.power[k] < s.power[k - 1] || s.power[k] < s.power[k + 1])
            continue;
          if (sub_k == grid || s.power[k] > s.power[sub_k]) sub_k = k;
        }
        if (sub_k != grid) {
          chosen = sub_k;
          break;
        }
      }

      const double offset = parabolic_offset(
          s.power[chosen - 1], s.power[chosen], s.power[chosen + 1]);
      const double f_ref =
          f_min + (static_cast<double>(chosen) + offset) * df;
      const double period = 1.0 / f_ref;

      if (out.empty()) {
        // Precision guard on the primary: the analytic threshold alone
        // over-fires on clumpy session flows whose burst spacing lights a
        // low frequency without the gaps actually repeating. A genuinely
        // periodic flow (even with dropout, which only skips whole ticks)
        // keeps most gaps near a multiple of the period.
        if (gap_agreement(times, period) < params.ls_min_gap_agreement)
          break;
      }

      PeriodDetection det;
      det.periodic = true;
      det.period_seconds = period;
      det.acf_peak_value = gap_agreement(times, period);
      det.periodogram_power = s.power[chosen];
      det.acf_threshold = params.ls_min_gap_agreement;
      det.power_threshold = threshold;
      out.push_back(det);

      // Mask the whole harmonic family (both directions) so a further
      // iteration can only surface a genuinely distinct period.
      for (std::size_t k = 0; k < grid; ++k) {
        if (s.masked[k] != 0) continue;
        const double f = f_min + static_cast<double>(k) * df;
        if (detail::near_multiple(f, f_ref, params.period_match_tolerance))
          s.masked[k] = 1;
      }
    }
    return out;
  }

 private:
  // Share of interarrival gaps within 25% of some multiple of `period`.
  static double gap_agreement(std::span<const double> times, double period) {
    if (times.size() < 2 || period <= 0.0) return 0.0;
    std::size_t ok = 0;
    for (std::size_t i = 0; i + 1 < times.size(); ++i) {
      const double gap = times[i + 1] - times[i];
      const double mult = std::max(1.0, std::round(gap / period));
      if (std::abs(gap - mult * period) <= 0.25 * period) ++ok;
    }
    return static_cast<double>(ok) / static_cast<double>(times.size() - 1);
  }
};

// ---- autoperiod / cfd-autoperiod -----------------------------------------

// Vlachos et al.'s autoperiod: the periodogram proposes candidate periods
// (cheap, frequency-resolution-limited), the ACF confirms each as a "hill" —
// a positive interior local maximum inside the candidate's tolerance window
// — and the hill apex, parabola-refined, is the reported period. The CFD
// variant linearly detrends the signal before the periodogram (suppressing
// trend/drift leakage into low frequencies) and clusters adjacent candidate
// bins so one true period proposes one validation instead of several.
class AutoperiodDetector final : public PeriodDetector {
 public:
  AutoperiodDetector(const DetectorParams& params, bool clustered)
      : PeriodDetector(params), clustered_(clustered) {}

  std::string_view name() const noexcept override {
    return clustered_ ? "cfd-autoperiod" : "autoperiod";
  }

 protected:
  std::vector<PeriodDetection> do_detect_all(std::span<const double> times,
                                             stats::Rng& rng,
                                             std::size_t max_periods,
                                             DetectScratch& s) const override {
    std::vector<PeriodDetection> out;
    const DetectorParams& params = this->params();

    const auto binned = detail::bin_flow(params, times, s.signal);
    if (!binned.usable) return out;
    const auto& signal = s.signal;
    const double dt = binned.dt;
    if (signal.size() < 4) return out;

    // Periodogram source: raw signal, or linearly detrended (CFD). The
    // detrend removes ramps (session build-up, drifting rates) that leak
    // power into the low-frequency bins, without the high-pass distortion a
    // first difference would add.
    std::span<const double> source = signal;
    if (clustered_) {
      s.source.assign(signal.begin(), signal.end());
      const double n = static_cast<double>(s.source.size());
      double sum = 0.0;
      double weighted = 0.0;
      for (std::size_t i = 0; i < s.source.size(); ++i) {
        sum += s.source[i];
        weighted += static_cast<double>(i) * s.source[i];
      }
      const double mean_i = (n - 1.0) / 2.0;
      const double var_i = (n * n - 1.0) / 12.0;  // variance of 0..n-1
      const double slope = (weighted / n - mean_i * (sum / n)) / var_i;
      const double intercept = sum / n - slope * mean_i;
      for (std::size_t i = 0; i < s.source.size(); ++i)
        s.source[i] -= intercept + slope * static_cast<double>(i);
      source = s.source;
    }
    const std::size_t source_lag = std::min(binned.max_lag, source.size() - 1);

    // Permutation significance on the periodogram only (the ACF hill check
    // replaces the default's ACF threshold). Same shuffle null and exact
    // early termination as the default pipeline; its lane 0 writes the
    // source's spectra into s.spectral.
    auto& null_power = s.null_power_max;
    null_power.clear();
    null_power.reserve(params.permutations);
    std::size_t exceed = 0;
    if (!detail::permutation_null(
            source, source_lag, params.permutations, rng, s, s.spectral,
            [&](const detail::LaneMaxima& observed,
                const detail::LaneMaxima& null) {
              null_power.push_back(null.power);
              return null.power >= observed.power && ++exceed >= 2;
            }))
      return out;
    std::sort(null_power.begin(), null_power.end());
    const double power_threshold = null_power[params.permutations - 2];

    // Candidate periods from significant bins, kept inside the testable
    // range [2*dt, max_lag*dt*(1+tol)].
    struct Candidate {
      double period;
      double power;
    };
    std::vector<Candidate> candidates;
    const auto& pgram = s.spectral.pgram_power;
    const double period_hi =
        static_cast<double>(binned.max_lag) * dt *
        (1.0 + params.period_match_tolerance);
    for (std::size_t k = 0; k < pgram.size(); ++k) {
      if (pgram[k] <= power_threshold) continue;
      const double period = s.spectral.pgram_period_samples(k) * dt;
      if (period < 2.0 * dt || period > period_hi) continue;
      candidates.push_back({period, pgram[k]});
    }
    if (candidates.empty()) return out;

    if (clustered_) {
      // Merge candidates whose periods agree within tolerance (adjacent
      // periodogram bins around one true period), keeping the
      // strongest-power member per cluster.
      std::sort(candidates.begin(), candidates.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.period < b.period;
                });
      std::vector<Candidate> merged;
      for (const auto& c : candidates) {
        if (!merged.empty() &&
            detail::relative_periods_match(merged.back().period, c.period,
                                           params.period_match_tolerance)) {
          if (c.power > merged.back().power) merged.back() = c;
        } else {
          merged.push_back(c);
        }
      }
      candidates = std::move(merged);
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.power > b.power;
              });

    // Hill validation on the ACF of the raw signal, strongest candidate
    // first. Without the detrend the source is the raw signal, whose ACF
    // the null's lane 0 already wrote.
    if (clustered_)
      stats::spectral_analysis(signal, binned.max_lag, s.workspace,
                               s.raw_spectral);
    const auto& acf = clustered_ ? s.raw_spectral.acf : s.spectral.acf;
    for (const auto& c : candidates) {
      if (out.size() >= max_periods) break;
      const auto lag_lo = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::floor(
                 c.period * (1.0 - params.period_match_tolerance) / dt)));
      const auto lag_hi = std::min<std::size_t>(
          binned.max_lag, static_cast<std::size_t>(std::ceil(
                              c.period *
                              (1.0 + params.period_match_tolerance) / dt)));
      if (lag_hi <= lag_lo + 1 || lag_hi >= acf.size()) continue;
      std::size_t apex = lag_lo;
      for (std::size_t lag = lag_lo; lag <= lag_hi; ++lag)
        if (acf[lag] > acf[apex]) apex = lag;
      // A hill: apex strictly inside the window, positive, and above both
      // window edges — a plateau or monotone ramp is not a hill.
      if (apex == lag_lo || apex == lag_hi) continue;
      if (acf[apex] <= 0.0) continue;
      if (acf[apex] <= acf[lag_lo] || acf[apex] <= acf[lag_hi]) continue;

      const double offset =
          parabolic_offset(acf[apex - 1], acf[apex], acf[apex + 1]);
      const double period = (static_cast<double>(apex) + offset) * dt;

      // Near-multiples of an already-accepted period are the same family.
      if (in_family(out, period, params.period_match_tolerance)) continue;

      PeriodDetection det;
      det.periodic = true;
      det.period_seconds = period;
      det.acf_peak_value = acf[apex];
      det.periodogram_power = c.power;
      det.acf_threshold = 0.0;  // the hill shape is the ACF criterion
      det.power_threshold = power_threshold;
      out.push_back(det);
    }
    return out;
  }

 private:
  bool clustered_;
};

// ---- multi-period --------------------------------------------------------

// Folds `signal` at a real-valued period (in bins) and fills per-phase sums
// and counts; returns the fold energy sum(acc^2/count). A fractional-bin
// fold: phase = fmod(i, period_bins), so a period that is not an integer
// number of bins does not drift across the profile the way an integer-lag
// fold would.
double fold_at(std::span<const double> signal, double period_bins,
               std::vector<double>& acc, std::vector<std::size_t>& count) {
  const auto nphases = static_cast<std::size_t>(std::ceil(period_bins));
  acc.assign(nphases, 0.0);
  count.assign(nphases, 0);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    const auto p = std::min<std::size_t>(
        nphases - 1, static_cast<std::size_t>(
                         std::fmod(static_cast<double>(i), period_bins)));
    acc[p] += signal[i];
    ++count[p];
  }
  double energy = 0.0;
  for (std::size_t p = 0; p < nphases; ++p)
    if (count[p] > 0) energy += acc[p] * acc[p] / static_cast<double>(count[p]);
  return energy;
}

// The paper's named future work: iteratively run the default pipeline,
// subtract the detected component's per-phase mean profile from the binned
// signal, and repeat on the residual. Overlapping periodic flows that mask
// each other in a single pass surface one at a time.
class MultiPeriodDetector final : public PeriodDetector {
 public:
  using PeriodDetector::PeriodDetector;

  static constexpr std::size_t kMaxDetections = 4;

  std::string_view name() const noexcept override { return "multi-period"; }
  std::size_t max_detections() const noexcept override {
    return kMaxDetections;
  }

 protected:
  std::vector<PeriodDetection> do_detect_all(std::span<const double> times,
                                             stats::Rng& rng,
                                             std::size_t max_periods,
                                             DetectScratch& s) const override {
    std::vector<PeriodDetection> out;
    const DetectorParams& params = this->params();

    const auto binned = detail::bin_flow(params, times, s.signal);
    if (!binned.usable) return out;
    s.residual.assign(s.signal.begin(), s.signal.end());

    while (out.size() < max_periods) {
      const auto analysis =
          detail::analyze_signal(params, s.residual, binned.dt, binned.span,
                                 binned.max_lag, rng, s);
      if (analysis.matches.empty()) break;
      std::vector<PeriodDetection> one;
      detail::pick_fundamentals(analysis, params.period_match_tolerance, 1,
                                one);
      if (one.empty()) break;
      const PeriodDetection& det = one.front();

      // Subtraction leaving the component's family detectable again would
      // loop forever on the same period; treat that as convergence.
      if (in_family(out, det.period_seconds, params.period_match_tolerance))
        break;
      out.push_back(det);

      // Remove the component: subtract the per-phase mean of a fractional
      // fold at the detected period. The ACF-refined period can be off by a
      // few tenths of a percent, which over dozens of cycles drifts the fold
      // by many bins and turns the subtraction into a no-op — so first
      // re-refine the period by maximizing fold energy over a +/-2%
      // neighborhood, then subtract at the argmax.
      const double period0_bins = det.period_seconds / binned.dt;
      if (period0_bins < 2.0 ||
          period0_bins >= static_cast<double>(s.residual.size())) {
        break;
      }
      double best_bins = period0_bins;
      double best_energy = -1.0;
      for (int step = -40; step <= 40; ++step) {
        const double p = period0_bins * (1.0 + 5e-4 * static_cast<double>(step));
        if (p < 2.0) continue;
        const double energy =
            fold_at(s.residual, p, s.profile, s.phase_count);
        if (energy > best_energy) {
          best_energy = energy;
          best_bins = p;
        }
      }
      fold_at(s.residual, best_bins, s.profile, s.phase_count);
      const auto nphases = static_cast<std::size_t>(std::ceil(best_bins));
      for (std::size_t i = 0; i < s.residual.size(); ++i) {
        const auto phase = std::min<std::size_t>(
            nphases - 1, static_cast<std::size_t>(std::fmod(
                             static_cast<double>(i), best_bins)));
        if (s.phase_count[phase] > 0)
          s.residual[i] -=
              s.profile[phase] / static_cast<double>(s.phase_count[phase]);
      }
    }
    return out;
  }
};

constexpr DetectorInfo kRegistry[] = {
    {DetectorStrategy::kAcfFft, "acf-fft",
     "ACF + periodogram with permutation test (paper default)"},
    {DetectorStrategy::kLombScargle, "lomb-scargle",
     "event periodogram on raw timestamps, no binning"},
    {DetectorStrategy::kAutoperiod, "autoperiod",
     "periodogram candidates validated as ACF hills"},
    {DetectorStrategy::kCfdAutoperiod, "cfd-autoperiod",
     "autoperiod with detrending and clustered candidates"},
    {DetectorStrategy::kMultiPeriod, "multi-period",
     "iteratively subtracts detected components"},
};

}  // namespace

std::span<const DetectorInfo> detector_registry() noexcept {
  return kRegistry;
}

std::string_view detector_name(DetectorStrategy strategy) {
  for (const auto& info : kRegistry)
    if (info.strategy == strategy) return info.name;
  throw std::invalid_argument("detector_name: unknown strategy");
}

DetectorStrategy detector_strategy_from_name(std::string_view name) {
  for (const auto& info : kRegistry)
    if (info.name == name) return info.strategy;
  throw std::invalid_argument("unknown detector: " + std::string(name));
}

std::unique_ptr<PeriodDetector> make_period_detector(
    DetectorStrategy strategy, const DetectorParams& params) {
  switch (strategy) {
    case DetectorStrategy::kAcfFft:
      return std::make_unique<AcfFftDetector>(params);
    case DetectorStrategy::kLombScargle:
      return std::make_unique<LombScargleDetector>(params);
    case DetectorStrategy::kAutoperiod:
      return std::make_unique<AutoperiodDetector>(params, false);
    case DetectorStrategy::kCfdAutoperiod:
      return std::make_unique<AutoperiodDetector>(params, true);
    case DetectorStrategy::kMultiPeriod:
      return std::make_unique<MultiPeriodDetector>(params);
  }
  throw std::invalid_argument("make_period_detector: unknown strategy");
}

}  // namespace jsoncdn::core
