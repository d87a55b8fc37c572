// End-to-end study pipeline: scenario -> synthetic workload -> CDN
// simulation -> edge-log table -> every §4/§5 analysis. This is the
// one-call public API; examples and benches compose it or its pieces.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cdn/network.h"
#include "core/characterization.h"
#include "core/ngram.h"
#include "core/periodicity.h"
#include "logs/table.h"
#include "workload/generator.h"

namespace jsoncdn::core {

struct StudyConfig {
  workload::GeneratorConfig workload;
  cdn::NetworkParams network;
  PeriodicityConfig periodicity;
  std::vector<NgramEvalConfig> ngram_configs;  // empty => skip ngram eval
  bool run_characterization = true;
  bool run_periodicity = false;  // expensive; long-term studies enable it
  // Worker threads for every analysis stage: 0 = auto (JSONCDN_THREADS env,
  // else hardware_concurrency). Overrides the per-stage thread settings.
  // The determinism contract (see DESIGN.md) guarantees the StudyResult is
  // bit-identical for any value.
  std::size_t threads = 0;
};

struct StudyResult {
  logs::LogTable table;                       // all content types
  std::vector<logs::LogTable::RowIndex> json_rows;  // application/json only
  workload::GroundTruth truth;  // never consumed by the analyses
  cdn::DeliveryMetrics delivery;

  // Views are built on demand rather than stored: a stored view would point
  // at the table of a moved-from result.
  [[nodiscard]] logs::TableView full() const { return logs::TableView(table); }
  [[nodiscard]] logs::TableView json() const {
    return logs::TableView(table, json_rows);
  }

  // §4 characterization (over the JSON rows unless noted).
  std::optional<SourceBreakdown> source;
  std::optional<MethodMix> methods;
  std::optional<CacheabilityStats> cacheability;
  std::optional<SizeComparison> sizes;                // over all rows
  std::optional<CacheabilityHeatmap> heatmap;
  std::vector<DomainCacheability> domains;

  // §5 analyses.
  std::optional<PeriodicityReport> periodicity;
  std::vector<NgramAccuracy> ngram;
};

// Runs the configured pipeline. The industry lookup for the Fig. 4 heatmap
// is derived from the generated domain catalog (standing in for the paper's
// commercial categorization service).
[[nodiscard]] StudyResult run_study(const StudyConfig& config);

}  // namespace jsoncdn::core
