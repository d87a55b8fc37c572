#include "oracle/detector_matrix.h"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <string>

#include "core/period_detector.h"

namespace jsoncdn::oracle {

namespace {

std::string fmt(double value) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3) << value;
  return out.str();
}

// Per-(scenario, strategy) accumulator across seeds.
struct CellSums {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double rel_error_sum = 0.0;
  std::size_t rel_error_count = 0;
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;
  std::size_t eligible_truth = 0;

  void add(const DetectorScore& score) {
    precision += score.precision();
    recall += score.recall();
    f1 += score.f1();
    for (const double err : score.period_rel_errors) rel_error_sum += err;
    rel_error_count += score.period_rel_errors.size();
    true_positives += score.true_positives;
    false_positives += score.false_positives;
    false_negatives += score.false_negatives;
    eligible_truth += score.eligible_truth;
  }

  [[nodiscard]] DetectorCell finish(core::DetectorStrategy strategy,
                                    std::size_t seeds) const {
    DetectorCell cell;
    cell.strategy = strategy;
    const double n = seeds > 0 ? static_cast<double>(seeds) : 1.0;
    cell.precision = precision / n;
    cell.recall = recall / n;
    cell.f1 = f1 / n;
    cell.mean_period_rel_error =
        rel_error_count > 0
            ? rel_error_sum / static_cast<double>(rel_error_count)
            : 0.0;
    cell.true_positives = true_positives;
    cell.false_positives = false_positives;
    cell.false_negatives = false_negatives;
    cell.eligible_truth = eligible_truth;
    return cell;
  }
};

const ScenarioRow* find_row(const DetectorMatrixReport& report,
                            const std::string& scenario) {
  for (const auto& row : report.rows) {
    if (row.scenario == scenario) return &row;
  }
  return nullptr;
}

}  // namespace

DetectorMatrixReport run_detector_matrix(const DetectorMatrixConfig& config) {
  DetectorMatrixReport report;
  if (config.scenarios.empty() || config.strategies.empty() ||
      config.seeds.empty()) {
    report.failures.push_back(
        "detector matrix needs at least one scenario, strategy, and seed");
    return report;
  }

  // generate_case carrier: only the workload-shaping fields matter here.
  ConformanceConfig gen;
  gen.scale = config.scale;
  gen.duration_seconds = config.duration_seconds;
  gen.n_clients = config.n_clients;

  for (const auto& scenario : config.scenarios) {
    gen.scenario = scenario;
    std::vector<CellSums> sums(config.strategies.size());
    for (const auto seed : config.seeds) {
      // One workload per (scenario, seed): every strategy column is scored
      // on the same log and sidecar.
      const auto generated = generate_case(seed, gen);
      for (std::size_t s = 0; s < config.strategies.size(); ++s) {
        core::PeriodicityConfig pconfig;
        pconfig.strategy = config.strategies[s];
        pconfig.threads = config.threads;
        const auto analyzed =
            core::analyze_periodicity(generated.json(), pconfig);
        sums[s].add(score_periodicity(analyzed, generated.truth));
      }
    }
    ScenarioRow row;
    row.scenario = scenario;
    for (std::size_t s = 0; s < config.strategies.size(); ++s) {
      row.cells.push_back(
          sums[s].finish(config.strategies[s], config.seeds.size()));
    }
    report.rows.push_back(std::move(row));
  }

  // ---- Bands ----
  const auto default_strategy = config.strategies.front();
  const auto default_name = std::string(core::detector_name(default_strategy));
  const auto& benign = config.scenarios.front();

  if (const auto* row = find_row(report, benign)) {
    const double f1 = row->cells.front().f1;
    if (f1 < config.min_default_benign_f1) {
      report.failures.push_back(default_name + " F1 " + fmt(f1) + " on " +
                                benign + " < floor " +
                                fmt(config.min_default_benign_f1));
    }
  }
  for (std::size_t i = 1; i < config.scenarios.size(); ++i) {
    const auto* row = find_row(report, config.scenarios[i]);
    if (row == nullptr) continue;
    double best = 0.0;
    for (const auto& cell : row->cells) best = std::max(best, cell.f1);
    if (best < config.min_best_f1) {
      report.failures.push_back("best F1 " + fmt(best) + " on " +
                                row->scenario + " < floor " +
                                fmt(config.min_best_f1));
    }
  }
  for (const auto& scenario : config.must_improve) {
    const auto* row = find_row(report, scenario);
    if (row == nullptr) {
      report.failures.push_back("must-improve scenario " + scenario +
                                " missing from the matrix");
      continue;
    }
    const double default_f1 = row->cells.front().f1;
    double best_other = 0.0;
    for (std::size_t c = 1; c < row->cells.size(); ++c)
      best_other = std::max(best_other, row->cells[c].f1);
    if (best_other <= default_f1) {
      report.failures.push_back(
          "no strategy beats " + default_name + " on " + scenario + " (" +
          default_name + " F1 " + fmt(default_f1) + ", best alternative " +
          fmt(best_other) + ")");
    }
  }
  return report;
}

std::string render_detector_matrix(const DetectorMatrixReport& report) {
  std::ostringstream out;
  out << "detector matrix (seed-mean F1; P/R in brackets)\n";
  for (const auto& row : report.rows) {
    out << "  " << row.scenario << "\n";
    for (const auto& cell : row.cells) {
      out << "    " << std::left << std::setw(16)
          << core::detector_name(cell.strategy) << std::right << " F1 "
          << fmt(cell.f1) << "  [P " << fmt(cell.precision) << " R "
          << fmt(cell.recall) << "]  period-err "
          << fmt(cell.mean_period_rel_error) << "  tp/fp/fn "
          << cell.true_positives << "/" << cell.false_positives << "/"
          << cell.false_negatives << "\n";
    }
  }
  if (report.all_passed()) {
    out << "  bands: PASS\n";
  } else {
    out << "  bands: FAIL\n";
    for (const auto& failure : report.failures)
      out << "    " << failure << "\n";
  }
  return out.str();
}

std::string render_detector_matrix_table(const DetectorMatrixReport& report) {
  std::ostringstream out;
  out << "| scenario | detector | precision | recall | F1 | mean period err "
         "| tp | fp | fn |\n";
  out << "|---|---|---|---|---|---|---|---|---|\n";
  for (const auto& row : report.rows) {
    for (const auto& cell : row.cells) {
      out << "| " << row.scenario << " | " << core::detector_name(cell.strategy)
          << " | " << fmt(cell.precision) << " | " << fmt(cell.recall) << " | "
          << fmt(cell.f1) << " | " << fmt(cell.mean_period_rel_error) << " | "
          << cell.true_positives << " | " << cell.false_positives << " | "
          << cell.false_negatives << " |\n";
    }
  }
  return out.str();
}

}  // namespace jsoncdn::oracle
