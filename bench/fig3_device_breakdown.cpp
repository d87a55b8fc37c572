// Figure 3: "Categorization by device type" + the Section 4 traffic-source
// text numbers (UA-string distribution, browser shares).
#include <cstdio>

#include "bench_util.h"
#include "cli_flags.h"
#include "core/report.h"
#include "core/study.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace jsoncdn;
  const double scale =
      argc > 1 ? cli::positive_value<double>("scale", argv[1]) : 0.01;
  bench::print_header("Figure 3", "JSON traffic by device type (short-term)");

  core::StudyConfig config;
  config.workload = workload::short_term_scenario(scale);
  const auto result = core::run_study(config);
  const auto& source = *result.source;

  std::fputs(core::render_source(source).c_str(), stdout);
  std::printf("\n");
  bench::compare("mobile share of JSON requests", 0.55,
                 source.device_share(http::DeviceType::kMobile));
  bench::compare("embedded share of JSON requests", 0.12,
                 source.device_share(http::DeviceType::kEmbedded));
  bench::compare("unknown share of JSON requests", 0.24,
                 source.device_share(http::DeviceType::kUnknown));
  bench::compare("mobile share of UA strings", 0.73,
                 source.ua_string_share(http::DeviceType::kMobile));
  bench::compare("embedded share of UA strings", 0.17,
                 source.ua_string_share(http::DeviceType::kEmbedded));
  bench::compare("desktop share of UA strings", 0.03,
                 source.ua_string_share(http::DeviceType::kDesktop));
  bench::compare("non-browser share", 0.88, source.non_browser_share());
  bench::compare("mobile-browser share", 0.025,
                 source.mobile_browser_share());
  return 0;
}
