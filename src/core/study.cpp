#include "core/study.h"

#include <algorithm>
#include <unordered_map>

#include "stats/parallel.h"

namespace jsoncdn::core {

StudyResult run_study(const StudyConfig& config) {
  workload::WorkloadGenerator generator(config.workload);
  auto workload = generator.generate();

  cdn::CdnNetwork network(generator.catalog().objects(), config.network);
  StudyResult result;
  result.table = network.run(workload.events);
  result.delivery = network.total_metrics();
  result.truth = std::move(workload.truth);
  result.json_rows = result.table.json_rows();
  const logs::TableView json = result.json();

  const std::size_t threads = stats::resolve_threads(config.threads);

  if (config.run_characterization) {
    result.source = characterize_source(json, threads);
    result.methods = characterize_methods(json, threads);
    result.cacheability = characterize_cacheability(json, threads);
    result.sizes = compare_sizes(result.full(), threads);

    // Industry lookup from the catalog ground truth (the stand-in for the
    // commercial categorization service the paper uses).
    std::unordered_map<std::string, std::string> industry;
    for (const auto& d : generator.catalog().domains()) {
      industry.emplace(d.name, std::string(to_string(d.industry)));
    }
    const IndustryLookup lookup = [&industry](std::string_view domain) {
      const auto it = industry.find(std::string(domain));
      return it == industry.end() ? std::string("Unknown") : it->second;
    };
    result.domains = domain_cacheability(json, lookup, threads);
    result.heatmap = cacheability_heatmap(result.domains);
  }

  if (config.run_periodicity) {
    PeriodicityConfig periodicity = config.periodicity;
    periodicity.threads = threads;
    result.periodicity = analyze_periodicity(json, periodicity);
  }

  if (!config.ngram_configs.empty()) {
    // Outer fan-out across configurations, inner threads split between
    // them; index-ordered placement keeps result.ngram in config order.
    const std::size_t outer =
        std::min(threads, config.ngram_configs.size());
    stats::ThreadPool pool(outer);
    result.ngram = stats::parallel_map<NgramAccuracy>(
        pool, config.ngram_configs.size(), [&](std::size_t i) {
          NgramEvalConfig ngram_config = config.ngram_configs[i];
          ngram_config.threads = std::max<std::size_t>(1, threads / outer);
          return evaluate_ngram(json, ngram_config);
        });
  }
  return result;
}

}  // namespace jsoncdn::core
