// Delivery-mechanism ablation for §5.2's proposals: edge prefetch alone,
// prefetch + HTTP server push, and prefetch + push + interarrival-aware
// candidate filtering (the paper's future-work refinement). Reports hit
// ratio, client latency, and speculative-traffic waste.
#include <cstdio>

#include "bench_util.h"
#include "cdn/network.h"
#include "cli_flags.h"
#include "core/prefetch.h"
#include "core/timing.h"
#include "workload/generator.h"

namespace {

jsoncdn::workload::GeneratorConfig scenario(std::uint64_t seed,
                                            std::size_t n_clients) {
  jsoncdn::workload::GeneratorConfig config;
  config.seed = seed;
  config.catalog_seed = 4321;
  config.duration_seconds = 3 * 3600.0;
  config.n_clients = n_clients;
  config.catalog.domains_per_industry = 2;
  config.shares = {0.75, 0.04, 0.03, 0.06, 0.02, 0.07, 0.03};
  return config;
}

struct Row {
  const char* name;
  jsoncdn::cdn::DeliveryMetrics metrics;
};

void print_row(const Row& row) {
  const auto& m = row.metrics;
  const auto latency = m.latency_summary();
  std::printf("  %-24s hit %.4f   mean %6.1f ms   p50 %6.1f ms   "
              "p99 %6.1f ms   pushes %6llu (waste %.2f)\n",
              row.name, m.cacheable_hit_ratio(), latency.mean * 1000.0,
              latency.p50 * 1000.0, latency.p99 * 1000.0,
              static_cast<unsigned long long>(m.pushes_sent()),
              m.push_waste());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jsoncdn;
  const std::size_t n_clients =
      argc > 1 ? cli::positive_value<std::size_t>("n_clients", argv[1]) : 1500;
  bench::print_header("Ablation: prefetch / push / interarrival filtering",
                      "Section 5.2 delivery mechanisms");

  workload::WorkloadGenerator train_gen(scenario(801, n_clients));
  const auto train = train_gen.generate();
  cdn::CdnNetwork train_net(train_gen.catalog().objects(), {});
  const auto train_logs = train_net.run(train.events);
  const auto train_rows = train_logs.json_rows();
  const logs::TableView train_json(train_logs, train_rows);

  workload::WorkloadGenerator replay_gen(scenario(802, n_clients));
  const auto replay = replay_gen.generate();

  std::vector<Row> rows;

  {
    cdn::CdnNetwork net(train_gen.catalog().objects(), {});
    (void)net.run(replay.events);
    rows.push_back({"baseline", net.total_metrics()});
  }
  {
    core::NgramPrefetcher prefetcher(
        core::train_prefetch_model(train_json, 2), {});
    cdn::CdnNetwork net(train_gen.catalog().objects(), {});
    (void)net.run(replay.events, &prefetcher);
    rows.push_back({"prefetch", net.total_metrics()});
  }
  {
    core::NgramPrefetcher prefetcher(
        core::train_prefetch_model(train_json, 2), {});
    cdn::NetworkParams params;
    params.edge.enable_push = true;
    cdn::CdnNetwork net(train_gen.catalog().objects(), params);
    (void)net.run(replay.events, &prefetcher);
    rows.push_back({"prefetch+push", net.total_metrics()});
  }
  {
    core::PrefetcherParams pparams;
    pparams.max_expected_gap_seconds = 120.0;
    core::NgramPrefetcher prefetcher(
        core::train_prefetch_model(train_json, 2), pparams);
    core::InterarrivalModel timing;
    timing.observe_dataset(train_json);
    prefetcher.set_timing_model(std::move(timing));
    cdn::NetworkParams params;
    params.edge.enable_push = true;
    cdn::CdnNetwork net(train_gen.catalog().objects(), params);
    (void)net.run(replay.events, &prefetcher);
    rows.push_back({"prefetch+push+timing", net.total_metrics()});
    std::printf("  (timing filter dropped %llu candidates)\n",
                static_cast<unsigned long long>(prefetcher.timing_filtered()));
  }

  for (const auto& row : rows) print_row(row);
  bench::note("");
  bench::note("expected shape: prefetch lifts hit ratio; push additionally "
              "collapses p50");
  bench::note("latency for correctly predicted requests; the interarrival "
              "filter trims");
  bench::note("speculative traffic for far-future predictions at little "
              "hit-ratio cost.");
  return 0;
}
