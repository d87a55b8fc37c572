// Figure 6: "CDF of the percent of periodic clients across objects" — for
// each periodic object, what share of its (analyzable) clients request it at
// the object's period. The paper highlights that 20% of periodic objects
// have a majority (>50%) of period-matching clients.
#include <cstdio>

#include "bench_util.h"
#include "cli_flags.h"
#include "core/periodicity.h"
#include "core/report.h"
#include "core/study.h"
#include "stats/descriptive.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace jsoncdn;
  const double scale =
      argc > 1 ? cli::positive_value<double>("scale", argv[1]) : 0.003;
  bench::print_header("Figure 6",
                      "CDF of periodic-client share across objects");

  core::StudyConfig config;
  config.workload = workload::long_term_scenario(scale);
  config.run_characterization = false;
  config.run_periodicity = true;
  const auto result = core::run_study(config);
  const auto& report = *result.periodicity;

  std::fputs(
      core::render_periodic_client_cdf(report.periodic_client_shares).c_str(),
      stdout);
  std::printf("\n");
  double majority_share = 0.0;
  if (!report.periodic_client_shares.empty()) {
    stats::EmpiricalCdf cdf{
        std::vector<double>(report.periodic_client_shares)};
    majority_share = 1.0 - cdf.at(0.5);
  }
  bench::compare("objects with >50% periodic clients", 0.20, majority_share);
  bench::note("paper: 20% of periodic objects have a majority of clients "
              "sharing the object period.");
  return 0;
}
