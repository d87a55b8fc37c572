// Prefetching ablation — the optimization Section 5.2 proposes but does not
// measure: ngram-driven prefetch at the edge, swept over the confidence
// threshold. Reports cache hit ratio, latency, and prefetch waste per
// setting against the no-prefetch baseline.
#include <cstdio>

#include "bench_util.h"
#include "cdn/network.h"
#include "cli_flags.h"
#include "core/prefetch.h"
#include "workload/generator.h"

namespace {

jsoncdn::workload::GeneratorConfig app_heavy(std::uint64_t seed,
                                             std::size_t n_clients) {
  jsoncdn::workload::GeneratorConfig config;
  config.seed = seed;
  config.catalog_seed = 777;
  config.duration_seconds = 3 * 3600.0;
  config.n_clients = n_clients;
  config.catalog.domains_per_industry = 2;
  config.shares = {0.75, 0.04, 0.03, 0.06, 0.02, 0.07, 0.03};
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jsoncdn;
  const std::size_t n_clients =
      argc > 1 ? cli::positive_value<std::size_t>("n_clients", argv[1]) : 2000;
  bench::print_header("Ablation: ngram prefetching",
                      "hit ratio / latency vs confidence threshold");

  workload::WorkloadGenerator train_gen(app_heavy(601, n_clients));
  const auto train = train_gen.generate();
  cdn::CdnNetwork train_net(train_gen.catalog().objects(), {});
  const auto train_logs = train_net.run(train.events);
  const auto train_rows = train_logs.json_rows();
  const logs::TableView train_json(train_logs, train_rows);

  workload::WorkloadGenerator replay_gen(app_heavy(602, n_clients));
  const auto replay = replay_gen.generate();

  cdn::CdnNetwork baseline(train_gen.catalog().objects(), {});
  (void)baseline.run(replay.events);
  const auto base = baseline.total_metrics();
  std::printf("  baseline (no prefetch): hit ratio %.4f, p50 latency %.1f ms, "
              "origin share %.4f\n\n",
              base.cacheable_hit_ratio(),
              base.latency_summary().p50 * 1000.0, base.origin_share());

  std::printf("  %-12s %-10s %-12s %-12s %-12s %-10s\n", "min_score",
              "hit-ratio", "p50-ms", "prefetches", "waste", "origin");
  for (const double min_score : {0.0, 0.02, 0.05, 0.1, 0.2, 0.4}) {
    auto model = core::train_prefetch_model(train_json, /*context_len=*/2);
    core::PrefetcherParams params;
    params.min_score = min_score;
    core::NgramPrefetcher prefetcher(std::move(model), params);
    cdn::CdnNetwork network(train_gen.catalog().objects(), {});
    (void)network.run(replay.events, &prefetcher);
    const auto m = network.total_metrics();
    std::printf("  %-12.2f %-10.4f %-12.1f %-12llu %-12.3f %-10.4f\n",
                min_score, m.cacheable_hit_ratio(),
                m.latency_summary().p50 * 1000.0,
                static_cast<unsigned long long>(m.prefetches_issued()),
                m.prefetch_waste(), m.origin_share());
  }
  bench::note("");
  bench::note("expected shape: prefetching lifts hit ratio over baseline; "
              "aggressive");
  bench::note("thresholds trade waste (useless origin fetches) for reach.");
  return 0;
}
