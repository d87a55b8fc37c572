// Section 4 headline statistics: request-type mix (84% GET, 96% of the rest
// POST), response cacheability (55% uncacheable), and the JSON-vs-HTML size
// comparison (24% / 87% smaller at p50 / p75).
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
  bench::print_header("Section 4 headline statistics",
                      "request/response characterization (short-term)");

  core::StudyConfig config;
  config.workload = workload::short_term_scenario(scale);
  const auto result = core::run_study(config);

  std::fputs(core::render_headline(*result.methods, *result.cacheability,
                                   *result.sizes)
                 .c_str(),
             stdout);
  std::printf("\n");
  bench::compare("GET share of JSON requests", 0.84,
                 result.methods->get_share());
  bench::compare("POST share of non-GET requests", 0.96,
                 result.methods->post_share_of_non_get());
  bench::compare("uncacheable share of JSON requests", 0.55,
                 result.cacheability->uncacheable_share());
  bench::compare("JSON p50 / HTML p50", 0.76, result.sizes->p50_ratio());
  bench::compare("JSON p75 / HTML p75", 0.13, result.sizes->p75_ratio());
  return 0;
}
