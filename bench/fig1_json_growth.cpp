// Figure 1: "Ratio of JSON to HTML requests on the CDN", 2016 -> 2019.
// Regenerated by simulating the app-ecosystem drift quarter by quarter.
#include <cstdio>

#include "bench_util.h"
#include "cli_flags.h"
#include "core/report.h"
#include "workload/traffic_mix.h"

int main(int argc, char** argv) {
  using namespace jsoncdn;
  bench::print_header("Figure 1", "JSON:HTML request ratio growth 2016-2019");

  workload::GrowthConfig config;
  if (argc > 1) {
    config.clients_per_quarter =
        cli::positive_value<std::size_t>("clients_per_quarter", argv[1]);
  }
  const auto series = workload::simulate_growth(config);
  std::fputs(core::render_growth(series).c_str(), stdout);

  bench::compare("JSON:HTML ratio at start (2016Q1)", 1.0,
                 series.front().json_html_ratio, "x");
  bench::compare("JSON:HTML ratio at end (2019Q3)", 4.0,
                 series.back().json_html_ratio, "x");
  bench::compare("mean JSON size change over span", -0.28,
                 series.back().mean_json_bytes /
                         series.front().mean_json_bytes -
                     1.0);
  bench::compare("median JSON size change over span", -0.28,
                 series.back().median_json_bytes /
                         series.front().median_json_bytes -
                     1.0);
  bench::note("paper: ratio grows monotonically to >4x; JSON bodies shrink "
              "~28% (Section 4)");
  return 0;
}
