// §4 aggregations: everything the paper reports when "Characterizing JSON
// Traffic" — the Fig. 3 device breakdown, browser vs non-browser shares,
// GET/POST request mix, response cacheability, the JSON-vs-HTML size
// comparison, and the Fig. 4 per-industry domain cacheability heatmap.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/taxonomy.h"
#include "logs/table.h"
#include "stats/descriptive.h"

namespace jsoncdn::core {

// ---- Traffic source (Fig. 3) -------------------------------------------

struct SourceBreakdown {
  // Request counts per device type, and over distinct UA strings.
  std::array<std::uint64_t, 4> requests_by_device{};   // index = DeviceType
  std::array<std::uint64_t, 4> ua_strings_by_device{};
  std::uint64_t total_requests = 0;
  std::uint64_t total_ua_strings = 0;
  std::uint64_t browser_requests = 0;
  std::uint64_t mobile_browser_requests = 0;
  std::uint64_t missing_ua_requests = 0;

  [[nodiscard]] double device_share(http::DeviceType d) const noexcept;
  [[nodiscard]] double ua_string_share(http::DeviceType d) const noexcept;
  [[nodiscard]] double browser_share() const noexcept;
  [[nodiscard]] double non_browser_share() const noexcept;
  [[nodiscard]] double mobile_browser_share() const noexcept;

  // Adds another shard's counters (shard-then-merge parallel aggregation).
  // Caller must ensure UA-string counters are disjoint across shards —
  // characterize_source merges the distinct-UA sets before counting them.
  void merge(const SourceBreakdown& other) noexcept;
};

// `threads`: 0 = auto (JSONCDN_THREADS env, else hardware_concurrency).
// All characterize_* aggregations shard the view's rows across workers and
// merge per-shard accumulators in shard order; counts are integers, so the
// result is bit-identical for any thread count.
// Device classification runs once per distinct interned UA symbol.
[[nodiscard]] SourceBreakdown characterize_source(const logs::TableView& view,
                                                  std::size_t threads = 1);

// ---- Request type ---------------------------------------------------------

struct MethodMix {
  std::uint64_t get = 0;
  std::uint64_t post = 0;
  std::uint64_t other = 0;
  std::uint64_t total = 0;

  [[nodiscard]] double get_share() const noexcept;
  // "96% of the remaining requests are POST": POST share of non-GET.
  [[nodiscard]] double post_share_of_non_get() const noexcept;
  [[nodiscard]] double upload_share() const noexcept;  // POST+PUT+PATCH

  void merge(const MethodMix& other) noexcept;
};

[[nodiscard]] MethodMix characterize_methods(const logs::TableView& view,
                                             std::size_t threads = 1);

// ---- Response type --------------------------------------------------------

struct CacheabilityStats {
  std::uint64_t cacheable = 0;    // config allows caching (HIT or MISS)
  std::uint64_t uncacheable = 0;  // NOCACHE
  std::uint64_t hits = 0;

  [[nodiscard]] double uncacheable_share() const noexcept;
  [[nodiscard]] double hit_share() const noexcept;

  void merge(const CacheabilityStats& other) noexcept;
};

// ERROR records are excluded (an origin failure says nothing about the
// customer's cacheability config); STALE counts as a cacheable hit — the
// bytes came from CDN storage. The streaming counterpart applies the same
// rules, so batch and streaming agree exactly.
[[nodiscard]] CacheabilityStats characterize_cacheability(
    const logs::TableView& view, std::size_t threads = 1);

// ---- Response status / error share ---------------------------------------

// HTTP status mix of a log — all zero except ok_2xx on a fault-free run.
// With fault injection on, this is the error-share view the resilience
// experiments report against.
struct StatusBreakdown {
  std::uint64_t total = 0;
  std::uint64_t ok_2xx = 0;
  std::uint64_t redirect_3xx = 0;
  std::uint64_t client_error_4xx = 0;
  std::uint64_t server_error_5xx = 0;     // includes 504
  std::uint64_t gateway_timeout_504 = 0;  // subset of server_error_5xx
  std::uint64_t stale_served = 0;         // 200s served via stale-if-error
  std::uint64_t error_cache_status = 0;   // records logged ERROR
  std::uint64_t shed = 0;                 // records logged SHED (load shed)
  std::uint64_t throttled = 0;            // records logged THROTTLED (429)

  // Share of requests answered with a server error.
  [[nodiscard]] double error_share() const noexcept;
  // Share of requests a resilience mechanism visibly absorbed (stale serves).
  [[nodiscard]] double absorbed_share() const noexcept;
  // Share of requests rejected by overload protection (shed + throttled).
  [[nodiscard]] double rejected_share() const noexcept;

  void merge(const StatusBreakdown& other) noexcept;
};

[[nodiscard]] StatusBreakdown characterize_status(const logs::TableView& view,
                                                  std::size_t threads = 1);

// JSON vs HTML response sizes over an (unfiltered) log.
struct SizeComparison {
  stats::Summary json;
  stats::Summary html;
  // json_pXX / html_pXX; the paper reports JSON 24% / 87% smaller at the
  // median / 75th percentile, i.e. ratios ~0.76 / ~0.13.
  [[nodiscard]] double p50_ratio() const noexcept;
  [[nodiscard]] double p75_ratio() const noexcept;
};

// Content classification runs once per distinct interned content-type
// symbol, then rows reduce over a precomputed class column.
[[nodiscard]] SizeComparison compare_sizes(const logs::TableView& view,
                                           std::size_t threads = 1);

// ---- Domain cacheability heatmap (Fig. 4) -------------------------------

// The industry label comes from an external categorization service in the
// paper; callers supply the lookup (tests/benches use the workload catalog's
// ground truth as that service).
using IndustryLookup = std::function<std::string(std::string_view domain)>;

struct DomainCacheability {
  std::string domain;
  std::string category;
  std::uint64_t requests = 0;
  double cacheable_share = 0.0;  // share of the domain's requests cacheable
};

// The industry lookup is invoked serially (once per distinct domain, after
// the sharded per-record aggregation), so it need not be thread-safe.
// Shards accumulate into flat per-domain-symbol arrays (no string hashing or
// tree walks); output is ordered by domain string.
[[nodiscard]] std::vector<DomainCacheability> domain_cacheability(
    const logs::TableView& view, const IndustryLookup& industry_of,
    std::size_t threads = 1);

struct CacheabilityHeatmap {
  std::vector<std::string> categories;      // row labels
  std::size_t bins = 10;                    // columns over [0, 1]
  // density[row][col]: share of the category's domains whose cacheable
  // share falls in that bin. Bin 0 contains exactly-0 ("never cache"),
  // the last bin contains exactly-1 ("always cache").
  std::vector<std::vector<double>> density;
  double never_cache_domain_share = 0.0;    // across all domains
  double always_cache_domain_share = 0.0;
};

[[nodiscard]] CacheabilityHeatmap cacheability_heatmap(
    const std::vector<DomainCacheability>& domains, std::size_t bins = 10);

}  // namespace jsoncdn::core
