// The detector comparison the paper could not produce: every detection
// strategy (core/period_detector.h) scored against ground truth on every
// hostile-periodic scenario, seed-swept, as one scenario × strategy matrix
// of precision / recall / F1 / period error. CI gates on it: the portfolio
// must beat the binned default where the default is known-weak, and the
// default must not regress on the benign workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/periodicity.h"
#include "oracle/conformance.h"

namespace jsoncdn::oracle {

struct DetectorMatrixConfig {
  std::vector<std::uint64_t> seeds = {1, 7, 1337};
  // First scenario is the benign reference; the rest are stress regimes.
  std::vector<std::string> scenarios = {
      "long-term",       "periodic-jitter", "periodic-drift",
      "periodic-dropout", "periodic-multi",  "periodic-diurnal",
  };
  std::vector<core::DetectorStrategy> strategies = {
      core::DetectorStrategy::kAcfFft,
      core::DetectorStrategy::kLombScargle,
      core::DetectorStrategy::kAutoperiod,
      core::DetectorStrategy::kCfdAutoperiod,
      core::DetectorStrategy::kMultiPeriod,
  };
  // Workload shape per (scenario, seed) case; matches the conformance
  // sweep's defaults so benign numbers line up with the seed-sweep table.
  double scale = 0.001;
  double duration_seconds = 2.0 * 3600.0;
  std::size_t n_clients = 600;
  std::size_t threads = 0;  // 0 = auto

  // ---- CI bands ----
  // The default strategy (strategies.front()) must hold this F1 on the
  // benign scenario (scenarios.front()) — the refactor must not regress it.
  double min_default_benign_f1 = 0.90;
  // On every stress scenario, the best strategy's F1 must stay above this.
  double min_best_f1 = 0.50;
  // Scenarios where some non-default strategy must beat the default's F1
  // outright (the portfolio's reason to exist).
  std::vector<std::string> must_improve = {"periodic-jitter",
                                           "periodic-dropout"};
};

// Seed-averaged score of one strategy on one scenario.
struct DetectorCell {
  core::DetectorStrategy strategy = core::DetectorStrategy::kAcfFft;
  double precision = 0.0;   // mean over seeds
  double recall = 0.0;
  double f1 = 0.0;
  double mean_period_rel_error = 0.0;  // over all true positives, all seeds
  std::size_t true_positives = 0;      // summed over seeds
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;
  std::size_t eligible_truth = 0;
};

struct ScenarioRow {
  std::string scenario;
  std::vector<DetectorCell> cells;  // config.strategies order
};

struct DetectorMatrixReport {
  std::vector<ScenarioRow> rows;       // config.scenarios order
  std::vector<std::string> failures;   // band violations; empty = pass
  [[nodiscard]] bool all_passed() const noexcept { return failures.empty(); }
};

// Runs the full matrix. Each (scenario, seed) workload is generated once
// and scored under every strategy, so strategy columns are compared on
// identical logs.
[[nodiscard]] DetectorMatrixReport run_detector_matrix(
    const DetectorMatrixConfig& config);

// Plain-text rendering (validator output).
[[nodiscard]] std::string render_detector_matrix(
    const DetectorMatrixReport& report);
// Markdown table for EXPERIMENTS.md: one row per (scenario, strategy).
[[nodiscard]] std::string render_detector_matrix_table(
    const DetectorMatrixReport& report);

}  // namespace jsoncdn::oracle
