// Table 2: "Summary of our datasets" — short-term (25M logs / 10 min / ~5K
// domains) and long-term (10M logs / 24h / ~170 domains). Regenerates both
// at a configurable scale and reports how the scaled volumes compare to the
// scaled paper targets.
#include <cstdio>

#include "bench_util.h"
#include "cdn/network.h"
#include "cli_flags.h"
#include "workload/scenario.h"

namespace {

void run_scenario(const char* name, const jsoncdn::workload::GeneratorConfig&
                      config, double scale, double paper_logs,
                  double expected_domains) {
  using namespace jsoncdn;
  workload::WorkloadGenerator generator(config);
  const auto workload = generator.generate();
  cdn::CdnNetwork network(generator.catalog().objects(), {});
  const auto dataset = network.run(workload.events);

  std::printf("\n%s dataset (scale %.4f):\n", name, scale);
  std::printf("  logs: %zu   duration: %.0f s   domains: %zu   clients: %zu\n",
              dataset.size(), config.duration_seconds,
              dataset.distinct_domains(), dataset.distinct_clients());
  jsoncdn::bench::compare("log volume vs scaled paper target",
                          paper_logs * scale,
                          static_cast<double>(dataset.size()));
  jsoncdn::bench::compare("domain count vs scenario target",
                          expected_domains,
                          static_cast<double>(dataset.distinct_domains()));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jsoncdn;
  const double scale =
      argc > 1 ? cli::positive_value<double>("scale", argv[1]) : 0.004;
  bench::print_header("Table 2", "dataset summary (short-term and long-term)");
  const auto short_term = workload::short_term_scenario(scale);
  run_scenario("short-term", short_term, scale, 25e6,
               static_cast<double>(short_term.catalog.domains_per_industry *
                                   workload::kIndustryCount));
  const auto long_term = workload::long_term_scenario(scale);
  run_scenario("long-term", long_term, scale, 10e6,
               static_cast<double>(long_term.catalog.domains_per_industry *
                                   workload::kIndustryCount));
  bench::note("");
  bench::note("paper: short-term 25M logs / 10 min / ~5K domains;");
  bench::note("       long-term 10M logs / 24 h / ~170 domains.");
  bench::note("note: long-term domain count shrinks with sqrt(scale) to keep");
  bench::note("      flows dense enough for the >=10-client object filter.");
  return 0;
}
