// Quickstart: generate a small synthetic CDN trace, run the full §4
// characterization, and print the paper-style report. ~1 second runtime.
//
//   $ ./quickstart [scale]
//
#include <iostream>

#include "cli_flags.h"
#include "core/report.h"
#include "core/study.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace jsoncdn;

  const double scale =
      argc > 1 ? cli::positive_value<double>("scale", argv[1]) : 0.002;
  core::StudyConfig config;
  config.workload = workload::short_term_scenario(scale);
  config.run_characterization = true;

  std::cout << "jsoncdn quickstart: short-term scenario at scale " << scale
            << "\n\n";
  const auto result = core::run_study(config);

  std::cout << "dataset: " << result.table.size() << " records, "
            << result.json_rows.size() << " JSON, "
            << result.table.distinct_domains() << " domains, "
            << result.table.distinct_clients() << " clients\n\n";

  std::cout << core::render_source(*result.source) << "\n";
  std::cout << core::render_headline(*result.methods, *result.cacheability,
                                     *result.sizes)
            << "\n";
  std::cout << core::render_heatmap(*result.heatmap) << "\n";

  const auto latency = result.delivery.latency_summary();
  std::cout << "delivery: overall hit ratio "
            << result.delivery.overall_hit_ratio() << ", origin share "
            << result.delivery.origin_share() << ", median latency "
            << latency.p50 * 1000.0 << " ms\n";
  return 0;
}
