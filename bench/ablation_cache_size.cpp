// Cache-capacity ablation: edge hit ratio vs cache size for JSON-heavy
// traffic. Context for the paper's cacheability findings — even for the
// ~45% of JSON traffic that is cacheable, the achievable offload depends on
// how much of the working set the edge can hold.
#include <cstdio>

#include "bench_util.h"
#include "cdn/network.h"
#include "cli_flags.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace jsoncdn;
  const double scale =
      argc > 1 ? cli::positive_value<double>("scale", argv[1]) : 0.004;
  bench::print_header("Ablation: edge cache capacity",
                      "hit ratio vs cache size (short-term)");

  workload::WorkloadGenerator generator(
      workload::short_term_scenario(scale, 77));
  const auto workload = generator.generate();

  std::printf("  %-14s %-16s %-14s %-12s\n", "capacity", "cacheable-hit",
              "overall-hit", "evictions");
  for (const double mb : {0.25, 1.0, 4.0, 16.0, 64.0, 512.0}) {
    cdn::NetworkParams params;
    params.edge.cache_capacity_bytes =
        static_cast<std::uint64_t>(mb * 1024.0 * 1024.0);
    cdn::CdnNetwork network(generator.catalog().objects(), params);
    (void)network.run(workload.events);
    const auto m = network.total_metrics();
    std::uint64_t evictions = 0;
    for (const auto& edge : network.edges())
      evictions += edge.cache().stats().evictions;
    std::printf("  %8.2f MB    %-16.4f %-14.4f %-12llu\n", mb,
                m.cacheable_hit_ratio(), m.overall_hit_ratio(),
                static_cast<unsigned long long>(evictions));
  }
  // Conditional revalidation: same capacity, stale entries validated with a
  // 304 instead of re-transferred.
  std::printf("\n  revalidation (64 MB cache):\n");
  std::printf("  %-14s %-16s %-16s %-14s\n", "mode", "cacheable-hit",
              "origin-MB", "refresh-hits");
  for (const bool reval : {false, true}) {
    cdn::NetworkParams params;
    params.edge.cache_capacity_bytes = 64ULL * 1024 * 1024;
    params.edge.enable_revalidation = reval;
    cdn::CdnNetwork network(generator.catalog().objects(), params);
    (void)network.run(workload.events);
    const auto m = network.total_metrics();
    std::printf("  %-14s %-16.4f %-16.1f %-14llu\n",
                reval ? "revalidate" : "refetch", m.cacheable_hit_ratio(),
                static_cast<double>(network.origin().bytes_served()) /
                    (1024.0 * 1024.0),
                static_cast<unsigned long long>(m.refresh_hits()));
  }
  bench::note("");
  bench::note("expected shape: hit ratio rises with capacity and saturates "
              "once the");
  bench::note("popular working set fits; evictions vanish at the plateau; "
              "revalidation");
  bench::note("converts expiry misses into 304s, cutting origin bytes.");
  return 0;
}
