// Manifest-driven news app scenario (§2.3 Table 1 + §5.2): mobile apps fetch
// a stories manifest and then article objects. The example trains the
// backoff ngram model on a day of logs, reports Table-3-style accuracy, and
// replays a second day through the CDN with ngram prefetching enabled to
// measure the cache-hit-ratio lift the paper projects.
//
//   $ ./news_app_prefetch [n_clients]
//
#include <iostream>

#include "cdn/network.h"
#include "cli_flags.h"
#include "core/ngram.h"
#include "core/prefetch.h"
#include "core/report.h"
#include "workload/generator.h"

namespace {

jsoncdn::workload::GeneratorConfig news_config(std::uint64_t seed,
                                               std::size_t n_clients) {
  jsoncdn::workload::GeneratorConfig config;
  config.seed = seed;
  config.catalog_seed = 900;  // both days share one app ecosystem
  config.duration_seconds = 4 * 3600.0;
  config.n_clients = n_clients;
  config.catalog.domains_per_industry = 2;
  // App-dominated population: the news-app use case.
  config.shares = {0.78, 0.04, 0.03, 0.05, 0.02, 0.06, 0.02};
  config.mean_sessions_per_client = 3.0;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jsoncdn;

  const std::size_t n_clients =
      argc > 1 ? cli::positive_value<std::size_t>("n_clients", argv[1]) : 3000;

  // Day 1: training traffic. Day 2: same app ecosystem (same catalog seed
  // would differ — we reuse one generator and two event streams by varying
  // only the client population seed via the workload seed).
  workload::WorkloadGenerator train_gen(news_config(501, n_clients));
  const auto train_events = train_gen.generate();
  cdn::CdnNetwork train_network(train_gen.catalog().objects(), {});
  const auto train_logs = train_network.run(train_events.events);
  const auto train_rows = train_logs.json_rows();
  const logs::TableView train_json(train_logs, train_rows);

  std::cout << "news app scenario: " << n_clients << " clients, "
            << train_json.size() << " training JSON records\n\n";

  // --- Table-3-style accuracy on held-out clients. -------------------------
  std::vector<core::NgramAccuracy> rows;
  for (const bool clustered : {false, true}) {
    core::NgramEvalConfig eval;
    eval.context_len = 1;
    eval.clustered = clustered;
    rows.push_back(core::evaluate_ngram(train_json, eval));
  }
  std::cout << core::render_ngram_table(rows) << "\n";

  // --- Prefetching replay. -------------------------------------------------
  auto model = core::train_prefetch_model(train_json, /*context_len=*/2);
  std::cout << "trained prefetch model: " << model.vocabulary_size()
            << " URLs, " << model.observed_transitions() << " transitions\n\n";

  workload::WorkloadGenerator replay_gen(news_config(502, n_clients));
  const auto replay = replay_gen.generate();

  cdn::CdnNetwork baseline(train_gen.catalog().objects(), {});
  (void)baseline.run(replay.events);
  const auto base_metrics = baseline.total_metrics();

  core::PrefetcherParams pparams;
  core::NgramPrefetcher prefetcher(std::move(model), pparams);
  cdn::CdnNetwork prefetching(train_gen.catalog().objects(), {});
  (void)prefetching.run(replay.events, &prefetcher);
  const auto pf_metrics = prefetching.total_metrics();

  std::cout << "replay without prefetch: cacheable hit ratio "
            << base_metrics.cacheable_hit_ratio() << ", median latency "
            << base_metrics.latency_summary().p50 * 1000.0 << " ms\n";
  std::cout << "replay with ngram prefetch: cacheable hit ratio "
            << pf_metrics.cacheable_hit_ratio() << ", median latency "
            << pf_metrics.latency_summary().p50 * 1000.0 << " ms\n";
  std::cout << "prefetches issued: " << pf_metrics.prefetches_issued()
            << ", useful: " << pf_metrics.useful_prefetches() << " (waste "
            << pf_metrics.prefetch_waste() * 100.0 << "%)\n";
  return 0;
}
