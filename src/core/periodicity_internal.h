// Shared internals of the §5.1 detector pipeline, split out so the strategy
// implementations in period_detector.cpp can reuse the exact binning,
// spectral-significance, and fundamental-extraction steps instead of
// re-deriving them. The acf-fft strategy is exactly bin_flow ->
// analyze_signal -> pick_fundamentals, in the order the paper's pipeline
// always ran them, so its output is bit-identical.
//
// Not part of the public core API; include only from core/*.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <vector>

#include "core/period_detector.h"
#include "core/periodicity.h"
#include "stats/autocorrelation.h"
#include "stats/rng.h"

namespace jsoncdn::core::detail {

// Relative-tolerance period equality shared by every strategy (and by
// PeriodDetector::periods_match): |a - b| / max(a, b) <= tol.
[[nodiscard]] inline bool relative_periods_match(double a, double b,
                                                 double tol) noexcept {
  if (a <= 0.0 || b <= 0.0) return false;
  const double ref = std::max(a, b);
  return std::abs(a - b) / ref <= tol;
}

// Harmonic-family test: the larger of a and b lies within relative
// tolerance `tol` of a whole multiple of the smaller (equal values are the
// first multiple). Works on periods or frequencies alike; a and b > 0.
[[nodiscard]] inline bool near_multiple(double a, double b,
                                        double tol) noexcept {
  const double ratio = a >= b ? a / b : b / a;
  const double nearest = std::max(1.0, std::round(ratio));
  return std::abs(ratio - nearest) / nearest <= tol;
}

struct BinnedFlow {
  bool usable = false;   // flow long/dense enough to test
  double dt = 0.0;       // effective bin width
  double span = 0.0;     // observation span (last - first timestamp)
  std::size_t max_lag = 0;
};

// Bins `times` into `signal` under the DetectorParams policy (sample cap,
// density cap, min-cycles lag bound). usable == false when the flow is too
// short, too sparse, or spans too few cycles for any lag to be testable.
[[nodiscard]] BinnedFlow bin_flow(const DetectorParams& params,
                                  std::span<const double> times,
                                  std::vector<double>& signal);

// What the permutation test reads from one signal's spectral pass: the
// largest ACF value at a peak lag and the largest periodogram power.
struct LaneMaxima {
  double acf_peak = 0.0;
  double power = 0.0;
};

// The permutation null (steps 2-3), shared by every binned strategy, with
// the observed signal's own spectral pass folded in: the first batch runs
// `source` itself in lane 0, beside the first three shuffles, and writes
// its full ACF and periodogram into `spectra`. Draws `permutations`
// successive shuffles of `source` from rng — each shuffle permutes the
// previous one, as one buffer shuffled in place would — and passes each
// permutation's maxima, with the observed signal's, to `stop` in draw order
// until `stop` returns true. Shuffles are drawn and transformed
// kSpectralLanes at a time (stats::spectral_maxima), yet a stop after any
// permutation leaves rng.engine() exactly where the one-at-a-time loop
// would, so callers that keep drawing from rng (the multi-period residual
// loop, direct detect()/detect_all() callers) see the same stream. Returns
// false when `stop` ended the run.
bool permutation_null(
    std::span<const double> source, std::size_t max_lag,
    std::size_t permutations, stats::Rng& rng, DetectScratch& scratch,
    stats::SpectralAnalysis& spectra,
    const std::function<bool(const LaneMaxima& observed,
                             const LaneMaxima& shuffled)>& stop);

// Per-signal analysis: permutation thresholds (the null's lane 0 is the
// signal's own spectral pass) and the list of significant (frequency,
// ACF-peak) matches.
struct FlowAnalysis {
  bool usable = false;          // signal reached the spectral pass
  bool significant = false;     // passed the permutation thresholds
  double dt = 0.0;
  double acf_threshold = 0.0;
  double power_threshold = 0.0;
  struct Match {
    std::size_t lag;
    double value;   // ACF at the lag
    double power;   // periodogram power of the licensing frequency
  };
  std::vector<Match> matches;   // deduplicated by lag
};

// Runs the spectral + permutation + matching steps over an already-binned
// signal; the signal's spectra land in scratch.spectral. `signal` may alias
// scratch.signal; the shuffle buffer is separate.
// `span` is the flow's observation span in seconds (bounds the harmonic
// search at span / min_cycles, exactly as the fused pipeline always did).
[[nodiscard]] FlowAnalysis analyze_signal(const DetectorParams& params,
                                          std::span<const double> signal,
                                          double dt, double span,
                                          std::size_t max_lag,
                                          stats::Rng& rng,
                                          DetectScratch& scratch);

// Fundamental extraction: repeatedly picks the smallest matched lag whose
// ACF peak is comparable (>= 0.5x) to the strongest remaining peak, then
// folds that period's near-multiples, appending up to `max_periods`
// detections to `out`. `matches` must be sorted by ACF value descending.
void pick_fundamentals(const FlowAnalysis& analysis, double tolerance,
                       std::size_t max_periods,
                       std::vector<PeriodDetection>& out);

}  // namespace jsoncdn::core::detail
