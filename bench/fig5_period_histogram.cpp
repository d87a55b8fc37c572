// Figure 5: "Histogram of JSON object periods" + the Section 5.1 headline
// numbers: 6.3% of JSON requests periodic; periodic traffic 56.2%
// uncacheable and 78% upload. Runs the full permutation-test detector over
// the long-term scenario.
#include <cstdio>

#include "bench_util.h"
#include "cli_flags.h"
#include "core/periodicity.h"
#include "core/report.h"
#include "core/study.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace jsoncdn;
  const double scale =
      argc > 1 ? cli::positive_value<double>("scale", argv[1]) : 0.003;
  bench::print_header("Figure 5 / Section 5.1",
                      "JSON object period histogram (long-term)");

  core::StudyConfig config;
  config.workload = workload::long_term_scenario(scale);
  config.run_characterization = false;
  config.run_periodicity = true;
  const auto result = core::run_study(config);
  const auto& report = *result.periodicity;

  std::fputs(core::render_period_histogram(report.object_periods).c_str(),
             stdout);
  std::printf("\n");
  std::fputs(core::render_periodicity_summary(report).c_str(), stdout);
  std::printf("\n");
  bench::compare("periodic share of JSON requests", 0.063,
                 report.periodic_request_share);
  bench::compare("periodic traffic uncacheable share", 0.562,
                 report.periodic_uncacheable_share);
  bench::compare("periodic traffic upload share", 0.78,
                 report.periodic_upload_share);
  bench::note("paper: spikes at even intervals (30s, 1m, 2m, 3m, 10m, 15m, "
              "30m).");
  return 0;
}
