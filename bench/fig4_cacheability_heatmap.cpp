// Figure 4: "Heatmap of domain cacheability by category" — per-industry
// distribution of per-domain cacheable shares, plus the Section 4 aggregate:
// ~50% of domains never cache, ~30% always cache.
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
  bench::print_header("Figure 4",
                      "domain cacheability heatmap by industry (short-term)");

  core::StudyConfig config;
  config.workload = workload::short_term_scenario(scale);
  const auto result = core::run_study(config);

  std::fputs(core::render_heatmap(*result.heatmap).c_str(), stdout);
  std::printf("\n");
  bench::compare("never-cache domain share", 0.50,
                 result.heatmap->never_cache_domain_share);
  bench::compare("always-cache domain share", 0.30,
                 result.heatmap->always_cache_domain_share);
  bench::note("paper: Financial Services / Streaming / Gaming cluster at the "
              "never-cache edge;");
  bench::note("       News/Media / Sports / Entertainment cluster at the "
              "always-cache edge.");
  return 0;
}
