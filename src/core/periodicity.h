// §5.1 periodicity detection, extending Vlachos et al. (SDM'05) exactly as
// the paper describes:
//
//   (1) compute the autocorrelation (time domain) and Fourier periodogram
//       (frequency domain) of each flow's 1-second-binned request signal;
//   (2) randomly permute the flow's inter-arrival gaps x times, recording the
//       max autocorrelation peak and max periodogram power per permutation;
//   (3) take the (x-1)-th largest of those maxima as significance thresholds
//       (x = 100 => ~p = 0.01);
//   (4) line up significant periodogram frequencies with significant
//       autocorrelation peaks; the matched, ACF-refined period is the flow
//       period — or no period at all, after noise thresholding.
//
// A client-object flow is labelled periodic iff both it and its object flow
// have a detected period and the two match. The paper's detector returns at
// most one period per flow; the multi-period strategy (core/period_detector.h)
// takes up the paper's multi-period future work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "logs/table.h"

namespace jsoncdn::core {

// Pluggable detection strategies (core/period_detector.h). kAcfFft is the
// paper's method and the default everywhere; the others trade its uniform
// binning for robustness on jittered, drifting, or sparse flows. The enum
// lives here so PeriodicityConfig can carry a selector without pulling the
// strategy interface into every include of the report types.
enum class DetectorStrategy {
  kAcfFft,         // §5.1 ACF + periodogram with permutation test (default)
  kLombScargle,    // event periodogram on raw timestamps, no binning
  kAutoperiod,     // periodogram candidates validated on ACF hills
  kCfdAutoperiod,  // autoperiod + detrending + clustered candidate bins
  kMultiPeriod,    // iteratively subtracts detected components
};

// The two settings a shipped caller varies: the CLI, the benches and
// perfbench set `permutations`, and bench/ablation_periodicity sweeps both.
// Every other detector value has one value in use, so it is a constant.
struct DetectorParams {
  double sample_interval = 1.0;   // paper: 1 s (network jitter floor)
  std::size_t permutations = 100; // paper: x = 100
  // Long flows are re-binned so the signal stays <= this many samples; the
  // effective interval never drops below sample_interval. Pure optimization:
  // periods of interest (>= 30 s) stay far above the Nyquist limit.
  static constexpr std::size_t max_signal_samples = 8192;
  // Signal length also scales with flow density: a flow of n events is
  // binned into at most samples_per_event * n bins. For a periodic flow the
  // period then spans ~samples_per_event bins — ample resolution — while
  // sparse flows avoid FFTs over mostly-zero signals.
  static constexpr std::size_t samples_per_event = 16;
  // Relative tolerance when matching an ACF peak to a periodogram frequency
  // (and an object period to a client period). The oracle grades a detected
  // period against the truth with the same tolerance.
  static constexpr double period_match_tolerance = 0.15;
  // A period must fit this many times into the observation span to count.
  static constexpr double min_cycles = 3.0;
  // Below this many requests, no detection attempt.
  static constexpr std::size_t min_requests = 4;

  // ---- Lomb-Scargle (kLombScargle) constants; unused by other strategies --
  // Frequency oversampling of the event periodogram grid.
  static constexpr double ls_oversample = 4.0;
  // Grid size cap: the grid is coarsened (never truncated) beyond this.
  static constexpr std::size_t ls_max_frequencies = 8192;
  // Dense flows are strided down to this many events before the O(n*M) scan.
  static constexpr std::size_t ls_max_events = 4096;
  // A detected period must explain at least this share of interarrival gaps
  // (each within 25% of a multiple of the period). This is the precision
  // guard standing in for the ACF cross-check: the analytic Poisson-null
  // threshold alone over-fires on clumpy session flows.
  static constexpr double ls_min_gap_agreement = 0.34;
};

struct PeriodDetection {
  bool periodic = false;
  double period_seconds = 0.0;
  double acf_peak_value = 0.0;    // ACF at the detected period lag
  double periodogram_power = 0.0;
  double acf_threshold = 0.0;     // permutation-derived
  double power_threshold = 0.0;
};

// ---- Log-level analysis --------------------------------------------------

struct ClientPeriodRecord {
  std::string client;
  bool periodic = false;          // client flow has a period at all
  double period_seconds = 0.0;
  std::size_t requests = 0;
  bool matches_object = false;    // period agrees with the object period
  // Additional distinct periods beyond the primary, strongest first. Only
  // the multi-period strategy fills these; empty for every single-period
  // strategy, so existing consumers are unchanged.
  std::vector<double> extra_periods;
};

struct ObjectPeriodicity {
  std::string url;
  bool object_periodic = false;
  double object_period_seconds = 0.0;
  std::size_t total_requests = 0;
  std::vector<ClientPeriodRecord> clients;  // analyzed client flows
  std::vector<double> extra_periods;        // multi-period strategy only
  std::size_t periodic_client_count = 0;    // matching clients
  double periodic_client_share = 0.0;       // of analyzed clients (Fig. 6)
  std::size_t periodic_requests = 0;        // requests in matching flows
  double uncacheable_share = 0.0;           // over the whole object flow
  double upload_share = 0.0;
};

struct PeriodicityConfig {
  DetectorParams detector;
  // Which detection method runs per flow (core/period_detector.h). The
  // default reproduces the paper's ACF+FFT pipeline bit-identically.
  DetectorStrategy strategy = DetectorStrategy::kAcfFft;
  // Permutation-test randomness.
  static constexpr std::uint64_t seed = 0x9e110d;
  // Worker threads for the per-flow fan-out: 0 = auto (JSONCDN_THREADS env,
  // else hardware_concurrency). Results are bit-identical for any value —
  // randomness is forked per flow and results placed in flow order.
  std::size_t threads = 0;
  // When nonzero, periodic_request_share is computed against this request
  // count instead of the input dataset's size. The streaming pipeline feeds
  // the detector only triage-selected candidate flows, but the share it
  // reports must stay relative to the full stream.
  std::size_t total_requests_override = 0;
};

struct PeriodicityReport {
  std::vector<ObjectPeriodicity> objects;
  std::size_t total_requests = 0;      // across the input dataset
  std::size_t periodic_requests = 0;   // in matching client flows
  double periodic_request_share = 0.0; // the paper's 6.3%
  double periodic_uncacheable_share = 0.0;  // the paper's 56.2%
  double periodic_upload_share = 0.0;       // the paper's 78%
  // Detected object periods (Fig. 5 histogram input), one per periodic
  // object.
  std::vector<double> object_periods;
  // Periodic-client share per periodic object (Fig. 6 CDF input).
  std::vector<double> periodic_client_shares;
};

// Runs the full §5.1 pipeline over a LogTable view (callers pass the
// JSON-row selection to match the paper), on the object flows that pass
// logs::FlowFilter. Flow grouping keys on interned u32 symbols instead of
// hashing strings per record.
[[nodiscard]] PeriodicityReport analyze_periodicity(
    const logs::TableView& view, const PeriodicityConfig& config);

}  // namespace jsoncdn::core
