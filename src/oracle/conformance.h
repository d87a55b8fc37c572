// Conformance harness: generate → serve → analyze → score, against bands.
//
// One conformance *case* is a seeded workload pushed through the CDN and
// every analysis family, scored against its ground-truth sidecar, plus the
// differential checks the pipeline guarantees by contract:
//   - 1-thread and N-thread analysis runs must be bit-identical;
//   - the streaming study's exact counters (methods, cacheability, status,
//     per-device requests) must equal the batch aggregations.
// The runner sweeps cases over seeds and collects every band violation as a
// human-readable failure string — an empty list is a pass, so a test can
// EXPECT the list empty and print it verbatim on failure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cdn/metrics.h"
#include "core/periodicity.h"
#include "logs/table.h"
#include "oracle/ground_truth.h"
#include "oracle/scorer.h"

namespace jsoncdn::oracle {

// Acceptance bands: the paper-band invariants for the clean long-window
// workload. The detector must recover labelled periodic flows nearly
// perfectly, marginals must sit close to the configured populations, and
// the predictor must clear a usefulness floor. One set of bands grades
// every sweep, so they are constants.
struct ConformanceTolerances {
  static constexpr double min_detector_precision = 0.90;
  static constexpr double min_detector_recall = 0.90;
  static constexpr double min_detector_f1 = 0.90;
  // Worst true-positive period error: the scorer's match tolerance.
  static constexpr double max_period_rel_error =
      core::DetectorParams::period_match_tolerance;
  static constexpr double max_device_l1 = 0.20;
  static constexpr double max_class_l1 = 0.25;
  static constexpr double max_industry_l1 = 0.40;
  // Raw-URL accuracy@1 on the edge log, and the same protocol on the true
  // chains.
  static constexpr double min_measured_top1 = 0.05;
  static constexpr double min_skyline_top1 = 0.05;
  // The log path may *gain* accuracy over the session skyline (periodic
  // machine flows are trivially predictable), but it must not lose more
  // than this at K=1.
  static constexpr double max_skyline_gap_top1 = 0.50;
};

struct ConformanceConfig {
  std::vector<std::uint64_t> seeds = {1, 7, 1337};
  // Named scenario the sweep generates from (workload::scenario_by_name);
  // hostile scenarios exercise the detectors under adversarial load.
  std::string scenario = "long-term";
  // Overrides the scenario's hostile share when >= 0 (0 turns attacks off).
  double hostile_share = -1.0;
  // Workload shape: the scenario rescaled to a bounded window so a full
  // sweep stays test-sized. n_clients = 0 keeps the scenario's own client
  // count.
  double scale = 0.001;
  double duration_seconds = 2.0 * 3600.0;
  std::size_t n_clients = 600;
  // Thread counts swept by the determinism differential; the first entry is
  // the count used for scoring. 0 = auto.
  std::vector<std::size_t> thread_counts = {1, 0};
  bool check_streaming = true;
  std::size_t ngram_context = 1;
  // Period-detection strategy every periodicity analysis in the sweep runs
  // with (core/period_detector.h). The default keeps historical behaviour.
  core::DetectorStrategy detector = core::DetectorStrategy::kAcfFft;
};

// One generated workload, served through the CDN, with its sidecar.
struct GeneratedCase {
  std::uint64_t seed = 0;
  logs::LogTable table;                             // full edge log
  std::vector<logs::LogTable::RowIndex> json_rows;  // the paper's input
  TruthSidecar truth;

  // Built on demand: a stored view would point at a moved-from table.
  [[nodiscard]] logs::TableView full() const { return logs::TableView(table); }
  [[nodiscard]] logs::TableView json() const {
    return logs::TableView(table, json_rows);
  }
};

[[nodiscard]] GeneratedCase generate_case(std::uint64_t seed,
                                          const ConformanceConfig& config);

struct CaseResult {
  std::uint64_t seed = 0;
  DetectorScore detector;
  NgramScore ngram_raw;
  NgramScore ngram_clustered;
  MarginalScore marginals;
  bool thread_invariant = true;
  bool streaming_consistent = true;
  std::vector<std::string> failures;  // empty = within every band

  [[nodiscard]] bool passed() const noexcept { return failures.empty(); }
};

// Scores one prepared (log, sidecar) pair against the bands. `threads` is
// the analysis thread count (0 = auto). Differential checks are the
// sweep's job, not this function's.
[[nodiscard]] CaseResult score_case(const logs::TableView& full,
                                    const logs::TableView& json,
                                    const TruthSidecar& truth,
                                    std::uint64_t seed,
                                    const ConformanceConfig& config,
                                    std::size_t threads);

struct ConformanceReport {
  std::vector<CaseResult> cases;
  [[nodiscard]] bool all_passed() const noexcept;
  [[nodiscard]] std::size_t total_failures() const noexcept;
};

// The full sweep: every seed generated, scored, and differentially checked.
[[nodiscard]] ConformanceReport run_conformance(const ConformanceConfig& config);

// Plain-text renderings in the report.h house style.
[[nodiscard]] std::string render_case(const CaseResult& result);
[[nodiscard]] std::string render_conformance(const ConformanceReport& report);
// The EXPERIMENTS.md detector table: one row per seed with P/R/F1, period
// error, and marginal distances.
[[nodiscard]] std::string render_detector_table(const ConformanceReport& report);

// --- Overload-protection experiment ---------------------------------------
//
// The headline robustness claim: under a flash crowd with a scraper
// underlay, an edge with admission control + rate limiting + CoDel shedding
// keeps human-class p99 latency and hit ratio within bands, while the same
// workload through an unprotected (capacity-model-only) edge collapses.
// Both arms run the SAME workload events through identically-sized edges;
// only the protections differ.

// jsoncdn-validate sets the workload; the edge sizing, the two arms
// (OverloadParams::protected_defaults() and unprotected_defaults()) and the
// bands are constants.
struct OverloadExperimentConfig {
  std::uint64_t seed = 1;
  // Workload: the flash-crowd scenario (scraper underlay included).
  double scale = 0.004;
  double duration_seconds = 600.0;
  std::size_t n_clients = 0;      // 0 keeps the scenario's client count
  double hostile_share = -1.0;    // < 0 keeps the scenario default (0.35)
  // Edge sizing shared by both arms: capacity must sit above the benign
  // baseline but below the spike, or overload never materializes. At the
  // default scale the benign load is ~60 req/s per edge and the flash peak
  // ~250 req/s per edge; 2 workers at a 20 ms floor give 100 req/s.
  static constexpr std::size_t concurrency = 2;
  static constexpr double service_floor_seconds = 0.02;

  // Bands the protected arm must hold...
  static constexpr double max_human_p99_seconds = 0.40;
  static constexpr double min_human_hit_ratio = 0.25;
  static constexpr double max_human_rejected_share = 0.10;
  // ...and the collapse the unprotected arm must exhibit: its human p99
  // must exceed the protected arm's by at least this factor AND break the
  // protected band.
  static constexpr double min_collapse_factor = 3.0;
};

// One arm's outcome (aggregated across edges).
struct OverloadArm {
  cdn::TwoClassDelivery classes;
  cdn::ResilienceMetrics resilience;
  double human_p99 = 0.0;
  double human_hit_ratio = 0.0;
  double human_rejected_share = 0.0;
  double machine_p99 = 0.0;
  double machine_rejected_share = 0.0;
};

struct OverloadExperiment {
  std::uint64_t seed = 0;
  OverloadArm protected_arm;
  OverloadArm unprotected_arm;
  std::vector<std::string> failures;  // empty = protected held, unprotected collapsed
  [[nodiscard]] bool passed() const noexcept { return failures.empty(); }
};

// Runs both arms and grades them against the bands.
[[nodiscard]] OverloadExperiment run_overload_experiment(
    const OverloadExperimentConfig& config);

// Plain-text and EXPERIMENTS.md-table renderings.
[[nodiscard]] std::string render_overload(const OverloadExperiment& experiment);
[[nodiscard]] std::string render_overload_table(
    const OverloadExperiment& experiment);

}  // namespace jsoncdn::oracle
