// Table 3: "NGram model accuracy for URLs with a history of N = 1 and
// varying K" — accuracy@K for K in {1, 5, 10} on actual vs clustered URLs,
// plus the Section 5.2 note that N = 5 adds at most ~5%.
#include <cstdio>

#include "bench_util.h"
#include "cdn/network.h"
#include "cli_flags.h"
#include "core/ngram.h"
#include "core/report.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace jsoncdn;
  const double scale =
      argc > 1 ? cli::positive_value<double>("scale", argv[1]) : 0.004;
  bench::print_header("Table 3", "backoff ngram accuracy@K (long-term)");

  // The prediction study runs on the long-term dataset (the paper uses it
  // for all Section 5 analyses).
  workload::WorkloadGenerator generator(workload::long_term_scenario(scale));
  const auto workload = generator.generate();
  cdn::CdnNetwork network(generator.catalog().objects(), {});
  const auto edge_log = network.run(workload.events);
  const auto json = edge_log.select(edge_log.json_rows());
  std::printf("  dataset: %zu JSON records, %zu clients\n\n", json.size(),
              json.distinct_clients());

  std::vector<core::NgramAccuracy> rows;
  for (const std::size_t n : {1u, 5u}) {
    for (const bool clustered : {true, false}) {
      core::NgramEvalConfig config;
      config.context_len = n;
      config.clustered = clustered;
      rows.push_back(core::evaluate_ngram(logs::TableView(json), config));
    }
  }
  std::fputs(core::render_ngram_table(rows).c_str(), stdout);
  std::printf("\n");

  const auto& clustered_n1 = rows[0];
  const auto& actual_n1 = rows[1];
  bench::compare("clustered accuracy K=1 (N=1)", 0.65,
                 clustered_n1.accuracy_at.at(1));
  bench::compare("clustered accuracy K=5 (N=1)", 0.84,
                 clustered_n1.accuracy_at.at(5));
  bench::compare("clustered accuracy K=10 (N=1)", 0.87,
                 clustered_n1.accuracy_at.at(10));
  bench::compare("actual accuracy K=1 (N=1)", 0.45,
                 actual_n1.accuracy_at.at(1));
  bench::compare("actual accuracy K=5 (N=1)", 0.64,
                 actual_n1.accuracy_at.at(5));
  bench::compare("actual accuracy K=10 (N=1)", 0.69,
                 actual_n1.accuracy_at.at(10));
  const double n5_gain =
      rows[3].accuracy_at.at(10) - actual_n1.accuracy_at.at(10);
  bench::compare("N=5 gain over N=1 at K=10 (actual)", 0.05, n5_gain);
  return 0;
}
