// Pluggable period-detection strategies behind one interface, so the §5.1
// pipeline, the anomaly second pass, and the validator's detector matrix can
// swap methods without touching the flow plumbing.
//
// The portfolio:
//   acf-fft        — the paper's Vlachos-style ACF + periodogram with a
//                    permutation test, bit-identical to the pre-strategy
//                    output (pinned by the periodicity golden fixture);
//   lomb-scargle   — event periodogram over raw timestamps with an analytic
//                    Poisson-null threshold; no binning, so jitter and
//                    dropout don't alias;
//   autoperiod     — periodogram candidates validated as ACF "hills"
//                    (Vlachos et al., autoperiod);
//   cfd-autoperiod — autoperiod over a linearly detrended signal with
//                    clustered candidate bins (trend-robust variant);
//   multi-period   — iteratively subtracts each detected component's
//                    per-phase profile and re-runs the default pipeline on
//                    the residual, surfacing overlapping periods.
//
// All strategies share DetectorParams: two settable fields (sample_interval,
// permutations) and constants; Lomb-Scargle additionally reads the ls_*
// constants. Strategies are deterministic given (times, rng state).
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/periodicity.h"
#include "stats/autocorrelation.h"
#include "stats/rng.h"

namespace jsoncdn::core {

// Reusable buffers for detect()/detect_all(), one set for every strategy;
// each strategy reads only its own fields. The permutation test runs ~100
// spectral passes per flow across thousands of flows, so carrying one
// scratch per worker thread removes every per-permutation (and per-flow)
// allocation from the hot loop. Contents carry no state between calls;
// never share one across threads.
struct DetectScratch {
  // Every binned strategy: the signal, the spectra of the null's observed
  // signal (lane 0 of its first batch), the shuffled copies and the
  // permutation maxima.
  stats::SpectralWorkspace workspace;
  stats::SpectralAnalysis spectral;
  std::vector<double> signal;
  std::vector<double> shuffled;      // one batch of shuffles, lane by lane
  std::vector<double> null_acf_max;
  std::vector<double> null_power_max;
  // cfd-autoperiod: the detrended periodogram source, and the raw signal's
  // spectra for the ACF hill check.
  std::vector<double> source;
  stats::SpectralAnalysis raw_spectral;
  // multi-period: the residual and the fold's per-phase sums and counts.
  std::vector<double> residual;
  std::vector<double> profile;
  std::vector<std::size_t> phase_count;
  // lomb-scargle: event times relative to t0, per-frequency phasor sums,
  // their powers, and the harmonic mask.
  std::vector<double> rel;
  std::vector<std::complex<double>> acc;
  std::vector<double> power;
  std::vector<char> masked;
};

class PeriodDetector {
 public:
  // Throws std::invalid_argument when a settable field of `params` is out
  // of range (make_period_detector lists the checks).
  explicit PeriodDetector(const DetectorParams& params);
  PeriodDetector(const PeriodDetector&) = delete;
  PeriodDetector& operator=(const PeriodDetector&) = delete;
  virtual ~PeriodDetector() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  // How many distinct periods the dataset pipeline should request per flow.
  // 1 for single-period strategies; >1 only for multi-period.
  [[nodiscard]] virtual std::size_t max_detections() const noexcept {
    return 1;
  }
  [[nodiscard]] const DetectorParams& params() const noexcept {
    return params_;
  }
  // True when a and b agree within DetectorParams::period_match_tolerance.
  [[nodiscard]] bool periods_match(double a, double b) const noexcept;

  // Validated entry points shared by every strategy: a flow containing any
  // non-finite timestamp or a strictly decreasing pair is rejected up front
  // (empty result / non-periodic detection), deterministically, before any
  // strategy code runs. Duplicate timestamps are legal input. The overloads
  // without a scratch allocate a fresh one per call.
  [[nodiscard]] PeriodDetection detect(std::span<const double> times,
                                       stats::Rng& rng) const;
  [[nodiscard]] PeriodDetection detect(std::span<const double> times,
                                       stats::Rng& rng,
                                       DetectScratch& scratch) const;
  [[nodiscard]] std::vector<PeriodDetection> detect_all(
      std::span<const double> times, stats::Rng& rng,
      std::size_t max_periods) const;
  [[nodiscard]] std::vector<PeriodDetection> detect_all(
      std::span<const double> times, stats::Rng& rng, std::size_t max_periods,
      DetectScratch& scratch) const;

 protected:
  // Strategy body. `times` is guaranteed finite and ascending (duplicates
  // allowed) and max_periods >= 1.
  [[nodiscard]] virtual std::vector<PeriodDetection> do_detect_all(
      std::span<const double> times, stats::Rng& rng, std::size_t max_periods,
      DetectScratch& scratch) const = 0;

 private:
  DetectorParams params_;
};

// ---- Registry -------------------------------------------------------------

struct DetectorInfo {
  DetectorStrategy strategy;
  std::string_view name;     // CLI spelling (--detector NAME)
  std::string_view summary;  // one-line description
};

// All known strategies, in enum order.
[[nodiscard]] std::span<const DetectorInfo> detector_registry() noexcept;

// CLI name of a strategy ("acf-fft", "lomb-scargle", ...).
[[nodiscard]] std::string_view detector_name(DetectorStrategy strategy);

// Inverse lookup; throws std::invalid_argument on an unknown name.
[[nodiscard]] DetectorStrategy detector_strategy_from_name(
    std::string_view name);

// Constructs the strategy. Every strategy checks the two settable fields
// and throws std::invalid_argument when sample_interval <= 0 or
// permutations < 2.
[[nodiscard]] std::unique_ptr<PeriodDetector> make_period_detector(
    DetectorStrategy strategy, const DetectorParams& params);

}  // namespace jsoncdn::core
