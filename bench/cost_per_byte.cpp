// Section 4 provisioning analysis: the CPU cost-per-byte premium of JSON
// traffic. The paper observes that JSON responses shrank ~28% while request
// counts grew, so per-request CPU dominates and operators must provision for
// request rate, not just egress. This bench prices a short-term trace under
// the serving-cost model and compares cost-per-byte across content classes
// and across the 2016/2019 size regimes.
#include <cstdio>

#include "bench_util.h"
#include "cdn/network.h"
#include "cli_flags.h"
#include "core/cost.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace jsoncdn;
  const double scale =
      argc > 1 ? cli::positive_value<double>("scale", argv[1]) : 0.006;
  bench::print_header("Section 4 provisioning",
                      "CPU cost-per-byte by content class");

  workload::WorkloadGenerator generator(
      workload::short_term_scenario(scale, 1234));
  const auto workload = generator.generate();
  cdn::CdnNetwork network(generator.catalog().objects(), {});
  const auto dataset = network.run(workload.events);

  const auto report = core::analyze_costs(logs::TableView(dataset));
  std::fputs(core::render_costs(report).c_str(), stdout);
  std::printf("\n");

  const auto* json = report.find(http::ContentClass::kJson);
  const auto* html = report.find(http::ContentClass::kHtml);
  if (json != nullptr && html != nullptr) {
    bench::compare("JSON / HTML cost-per-KB ratio", 3.0,
                   json->cost_per_kilobyte() / html->cost_per_kilobyte());
    bench::compare("JSON CPU share of its cost", 0.5, json->cpu_share());
    bench::compare("HTML CPU share of its cost", 0.3, html->cpu_share());
  }

  // The 2016-size regime: same traffic, JSON bodies ~39% larger
  // (1/0.72), i.e. before the paper's observed slimming.
  auto old_config = workload::short_term_scenario(scale, 1234);
  old_config.catalog.json_size_log_shift = 0.3285;  // ln(1/0.72)
  workload::WorkloadGenerator old_generator(old_config);
  const auto old_workload = old_generator.generate();
  cdn::CdnNetwork old_network(old_generator.catalog().objects(), {});
  const auto old_dataset = old_network.run(old_workload.events);
  const auto old_report = core::analyze_costs(logs::TableView(old_dataset));
  const auto* old_json = old_report.find(http::ContentClass::kJson);
  if (json != nullptr && old_json != nullptr) {
    std::printf("\n");
    bench::note("2016-size regime (JSON bodies ~39% larger):");
    std::printf("  JSON cost-per-KB: 2016 sizes %.3f -> 2019 sizes %.3f "
                "(x%.2f)\n",
                old_json->cost_per_kilobyte(), json->cost_per_kilobyte(),
                json->cost_per_kilobyte() / old_json->cost_per_kilobyte());
    bench::note("shrinking bodies raise cost-per-byte: the paper's "
                "provisioning point.");
  }
  return 0;
}
