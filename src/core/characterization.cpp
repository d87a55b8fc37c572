#include "core/characterization.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "stats/kernels.h"
#include "stats/parallel.h"

namespace jsoncdn::core {

namespace {

constexpr std::size_t device_index(http::DeviceType d) noexcept {
  return static_cast<std::size_t>(d);
}

// The counting kernels read enum columns through their int underlying type
// ([expr.static.cast]/10 allows the aliasing) and assume the enumerator
// numbering below; a new enumerator that breaks either assumption fails here
// instead of miscounting.
static_assert(sizeof(http::Method) == sizeof(std::int32_t));
static_assert(sizeof(logs::CacheStatus) == sizeof(std::int32_t));
static_assert(static_cast<int>(http::Method::kGet) == 0 &&
              static_cast<int>(http::Method::kPost) == 1 &&
              static_cast<int>(http::Method::kPatch) == 6);
static_assert(static_cast<int>(logs::CacheStatus::kHit) == 0 &&
              static_cast<int>(logs::CacheStatus::kThrottled) == 7 &&
              logs::kCacheStatusCount == 8);

// Kernel-facing view of an enum/symbol column restricted to a shard
// [begin, end) of TableView positions: a direct column walk (offset by
// begin) for whole-table views, a gather through the view's row indices
// otherwise.
struct ShardSlice {
  const std::uint32_t* idx;  // nullptr => contiguous
  std::size_t begin;
  std::size_t n;

  ShardSlice(const logs::TableView& view, std::size_t b, std::size_t e)
      : idx(view.row_indices() == nullptr ? nullptr
                                          : view.row_indices() + b),
        begin(b),
        n(e - b) {}

  template <typename T>
  [[nodiscard]] const std::int32_t* enum_col(std::span<const T> col) const {
    return reinterpret_cast<const std::int32_t*>(col.data()) +
           (idx == nullptr ? begin : 0);
  }
  [[nodiscard]] const std::uint32_t* u32_col(
      std::span<const std::uint32_t> col) const {
    return col.data() + (idx == nullptr ? begin : 0);
  }
};

}  // namespace

double SourceBreakdown::device_share(http::DeviceType d) const noexcept {
  return total_requests == 0
             ? 0.0
             : static_cast<double>(requests_by_device[device_index(d)]) /
                   static_cast<double>(total_requests);
}

double SourceBreakdown::ua_string_share(http::DeviceType d) const noexcept {
  return total_ua_strings == 0
             ? 0.0
             : static_cast<double>(ua_strings_by_device[device_index(d)]) /
                   static_cast<double>(total_ua_strings);
}

double SourceBreakdown::browser_share() const noexcept {
  return total_requests == 0 ? 0.0
                             : static_cast<double>(browser_requests) /
                                   static_cast<double>(total_requests);
}

double SourceBreakdown::non_browser_share() const noexcept {
  return total_requests == 0 ? 0.0 : 1.0 - browser_share();
}

double SourceBreakdown::mobile_browser_share() const noexcept {
  return total_requests == 0 ? 0.0
                             : static_cast<double>(mobile_browser_requests) /
                                   static_cast<double>(total_requests);
}

void SourceBreakdown::merge(const SourceBreakdown& other) noexcept {
  for (std::size_t d = 0; d < requests_by_device.size(); ++d) {
    requests_by_device[d] += other.requests_by_device[d];
    ua_strings_by_device[d] += other.ua_strings_by_device[d];
  }
  total_requests += other.total_requests;
  total_ua_strings += other.total_ua_strings;
  browser_requests += other.browser_requests;
  mobile_browser_requests += other.mobile_browser_requests;
  missing_ua_requests += other.missing_ua_requests;
}

SourceBreakdown characterize_source(const logs::TableView& view,
                                    std::size_t threads) {
  const auto& table = view.table();
  // Classify each distinct UA once, up front: the dictionary is tiny next to
  // the row count. The row loop then reduces to a symbol histogram (the
  // group-by counting kernel) and every per-request marginal is recovered
  // from per-symbol counts — integer sums commute, so the totals match the
  // per-row loop exactly.
  const auto& uas = table.user_agents();
  std::vector<http::DeviceClassification> cls_by_sym(uas.size());
  for (std::size_t s = 0; s < uas.size(); ++s) {
    cls_by_sym[s] = http::classify_device(
        uas.view(static_cast<logs::StringInterner::Symbol>(s)));
  }

  struct Shard {
    std::vector<std::uint64_t> count_by_sym;
    void merge(const Shard& other) {
      if (count_by_sym.size() < other.count_by_sym.size())
        count_by_sym.resize(other.count_by_sym.size(), 0);
      for (std::size_t s = 0; s < other.count_by_sym.size(); ++s)
        count_by_sym[s] += other.count_by_sym[s];
    }
  };
  stats::ThreadPool pool(threads);
  const auto shard = stats::parallel_reduce<Shard>(
      pool, view.size(), [&](Shard& acc, std::size_t begin, std::size_t end) {
        acc.count_by_sym.resize(uas.size(), 0);
        const ShardSlice slice(view, begin, end);
        stats::kernels::count_u32(slice.u32_col(table.user_agent_syms()),
                                  slice.idx, slice.n,
                                  acc.count_by_sym.data(), uas.size());
      });
  SourceBreakdown out;
  for (std::size_t s = 0; s < shard.count_by_sym.size(); ++s) {
    const std::uint64_t c = shard.count_by_sym[s];
    if (c == 0) continue;
    const auto& cls = cls_by_sym[s];
    out.total_requests += c;
    out.requests_by_device[device_index(cls.device)] += c;
    if (cls.is_browser()) {
      out.browser_requests += c;
      if (cls.device == http::DeviceType::kMobile)
        out.mobile_browser_requests += c;
    }
    const bool empty_ua =
        uas.view(static_cast<logs::StringInterner::Symbol>(s)).empty();
    if (empty_ua) {
      out.missing_ua_requests += c;
      continue;  // a missing header is not a UA string
    }
    ++out.total_ua_strings;
    ++out.ua_strings_by_device[device_index(cls.device)];
  }
  return out;
}

double MethodMix::get_share() const noexcept {
  return total == 0 ? 0.0
                    : static_cast<double>(get) / static_cast<double>(total);
}

double MethodMix::post_share_of_non_get() const noexcept {
  const auto non_get = total - get;
  return non_get == 0 ? 0.0
                      : static_cast<double>(post) /
                            static_cast<double>(non_get);
}

double MethodMix::upload_share() const noexcept {
  // In this log schema the upload methods are POST and the residual "other"
  // bucket's PUT/PATCH; downloads are GET/HEAD.
  return total == 0 ? 0.0
                    : static_cast<double>(post) / static_cast<double>(total);
}

void MethodMix::merge(const MethodMix& shard) noexcept {
  get += shard.get;
  post += shard.post;
  other += shard.other;
  total += shard.total;
}

MethodMix characterize_methods(const logs::TableView& view,
                               std::size_t threads) {
  const auto& table = view.table();
  stats::ThreadPool pool(threads);
  return stats::parallel_reduce<MethodMix>(
      pool, view.size(),
      [&](MethodMix& out, std::size_t begin, std::size_t end) {
        const ShardSlice slice(view, begin, end);
        std::uint64_t counts[8] = {};
        stats::kernels::count_enum8(slice.enum_col(table.methods()),
                                    slice.idx, slice.n, counts);
        out.get += counts[static_cast<int>(http::Method::kGet)];
        out.post += counts[static_cast<int>(http::Method::kPost)];
        out.total += slice.n;
        // Everything else lands in the residual bucket, as the switch did.
        std::uint64_t other = 0;
        for (int m = 0; m < 8; ++m) {
          if (m != static_cast<int>(http::Method::kGet) &&
              m != static_cast<int>(http::Method::kPost))
            other += counts[m];
        }
        out.other += other;
      });
}

double CacheabilityStats::uncacheable_share() const noexcept {
  const auto total = cacheable + uncacheable;
  return total == 0 ? 0.0
                    : static_cast<double>(uncacheable) /
                          static_cast<double>(total);
}

double CacheabilityStats::hit_share() const noexcept {
  const auto total = cacheable + uncacheable;
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

void CacheabilityStats::merge(const CacheabilityStats& shard) noexcept {
  cacheable += shard.cacheable;
  uncacheable += shard.uncacheable;
  hits += shard.hits;
}

CacheabilityStats characterize_cacheability(const logs::TableView& view,
                                            std::size_t threads) {
  const auto& table = view.table();
  stats::ThreadPool pool(threads);
  return stats::parallel_reduce<CacheabilityStats>(
      pool, view.size(),
      [&](CacheabilityStats& out, std::size_t begin, std::size_t end) {
        const ShardSlice slice(view, begin, end);
        std::uint64_t counts[8] = {};
        stats::kernels::count_enum8(slice.enum_col(table.cache_statuses()),
                                    slice.idx, slice.n, counts);
        // Same bucketing as count_cache_status, applied to the tallies.
        const auto c = [&](logs::CacheStatus s) {
          return counts[static_cast<int>(s)];
        };
        out.uncacheable += c(logs::CacheStatus::kNotCacheable);
        out.cacheable += c(logs::CacheStatus::kHit) +
                         c(logs::CacheStatus::kStale) +
                         c(logs::CacheStatus::kMiss) +
                         c(logs::CacheStatus::kRefreshHit);
        out.hits += c(logs::CacheStatus::kHit) + c(logs::CacheStatus::kStale);
      });
}

double StatusBreakdown::error_share() const noexcept {
  return total == 0 ? 0.0
                    : static_cast<double>(server_error_5xx) /
                          static_cast<double>(total);
}

double StatusBreakdown::absorbed_share() const noexcept {
  return total == 0 ? 0.0
                    : static_cast<double>(stale_served) /
                          static_cast<double>(total);
}

double StatusBreakdown::rejected_share() const noexcept {
  return total == 0 ? 0.0
                    : static_cast<double>(shed + throttled) /
                          static_cast<double>(total);
}

void StatusBreakdown::merge(const StatusBreakdown& shard) noexcept {
  total += shard.total;
  ok_2xx += shard.ok_2xx;
  redirect_3xx += shard.redirect_3xx;
  client_error_4xx += shard.client_error_4xx;
  server_error_5xx += shard.server_error_5xx;
  gateway_timeout_504 += shard.gateway_timeout_504;
  stale_served += shard.stale_served;
  error_cache_status += shard.error_cache_status;
  shed += shard.shed;
  throttled += shard.throttled;
}

StatusBreakdown characterize_status(const logs::TableView& view,
                                    std::size_t threads) {
  const auto& table = view.table();
  stats::ThreadPool pool(threads);
  return stats::parallel_reduce<StatusBreakdown>(
      pool, view.size(),
      [&](StatusBreakdown& out, std::size_t begin, std::size_t end) {
        const ShardSlice slice(view, begin, end);
        const auto buckets = stats::kernels::count_status(
            slice.enum_col(table.statuses()), slice.idx, slice.n);
        out.total += slice.n;
        out.ok_2xx += buckets.ok_2xx;
        out.redirect_3xx += buckets.redirect_3xx;
        out.client_error_4xx += buckets.client_error_4xx;
        out.server_error_5xx += buckets.server_error_5xx;
        out.gateway_timeout_504 += buckets.gateway_timeout_504;
        std::uint64_t cache_counts[8] = {};
        stats::kernels::count_enum8(slice.enum_col(table.cache_statuses()),
                                    slice.idx, slice.n, cache_counts);
        out.stale_served +=
            cache_counts[static_cast<int>(logs::CacheStatus::kStale)];
        out.error_cache_status +=
            cache_counts[static_cast<int>(logs::CacheStatus::kError)];
        out.shed += cache_counts[static_cast<int>(logs::CacheStatus::kShed)];
        out.throttled +=
            cache_counts[static_cast<int>(logs::CacheStatus::kThrottled)];
      });
}

double SizeComparison::p50_ratio() const noexcept {
  return html.p50 == 0.0 ? 0.0 : json.p50 / html.p50;
}

double SizeComparison::p75_ratio() const noexcept {
  return html.p75 == 0.0 ? 0.0 : json.p75 / html.p75;
}

namespace {

// Chunk-ordered concatenation keeps the collected sizes in record order, so
// the summaries match the serial pass bit for bit.
struct SizeShard {
  std::vector<double> json_sizes;
  std::vector<double> html_sizes;

  void merge(const SizeShard& shard) {
    json_sizes.insert(json_sizes.end(), shard.json_sizes.begin(),
                      shard.json_sizes.end());
    html_sizes.insert(html_sizes.end(), shard.html_sizes.begin(),
                      shard.html_sizes.end());
  }
};

}  // namespace

SizeComparison compare_sizes(const logs::TableView& view,
                             std::size_t threads) {
  const auto& table = view.table();
  // One classification per distinct content-type symbol.
  const auto& ctypes = table.content_types();
  std::vector<http::ContentClass> class_by_sym(ctypes.size());
  for (std::size_t s = 0; s < ctypes.size(); ++s) {
    class_by_sym[s] = http::classify_content(
        ctypes.view(static_cast<logs::StringInterner::Symbol>(s)));
  }
  stats::ThreadPool pool(threads);
  const auto shard = stats::parallel_reduce<SizeShard>(
      pool, view.size(),
      [&](SizeShard& acc, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const auto row = view[i];
          const auto content = class_by_sym[table.content_type_sym(row)];
          if (content == http::ContentClass::kJson) {
            acc.json_sizes.push_back(
                static_cast<double>(table.response_bytes(row)));
          } else if (content == http::ContentClass::kHtml) {
            acc.html_sizes.push_back(
                static_cast<double>(table.response_bytes(row)));
          }
        }
      });
  SizeComparison out;
  out.json = stats::summarize(shard.json_sizes);
  out.html = stats::summarize(shard.html_sizes);
  return out;
}

std::vector<DomainCacheability> domain_cacheability(
    const logs::TableView& view, const IndustryLookup& industry_of,
    std::size_t threads) {
  if (!industry_of)
    throw std::invalid_argument("domain_cacheability: null industry lookup");
  const auto& table = view.table();
  const auto& domains = table.domains();
  struct Acc {
    std::uint64_t requests = 0;
    std::uint64_t cacheable = 0;
  };
  struct DomainShard {
    std::vector<Acc> by_sym;  // flat per-domain-symbol accumulators
    void merge(const DomainShard& other) {
      if (by_sym.size() < other.by_sym.size()) by_sym.resize(other.by_sym.size());
      for (std::size_t s = 0; s < other.by_sym.size(); ++s) {
        by_sym[s].requests += other.by_sym[s].requests;
        by_sym[s].cacheable += other.by_sym[s].cacheable;
      }
    }
  };
  stats::ThreadPool pool(threads);
  const auto merged = stats::parallel_reduce<DomainShard>(
      pool, view.size(),
      [&](DomainShard& shard, std::size_t begin, std::size_t end) {
        shard.by_sym.resize(domains.size());
        for (std::size_t i = begin; i < end; ++i) {
          const auto row = view[i];
          // Download traffic only; ERROR records carry no cacheability
          // signal.
          if (!http::is_download(table.method(row))) continue;
          const auto cache = table.cache_status(row);
          if (cache == logs::CacheStatus::kError) continue;
          auto& acc = shard.by_sym[table.domain_sym(row)];
          ++acc.requests;
          if (cache != logs::CacheStatus::kNotCacheable) ++acc.cacheable;
        }
      });
  // Emit in domain-string order.
  std::vector<logs::StringInterner::Symbol> present;
  for (std::size_t s = 0; s < merged.by_sym.size(); ++s) {
    if (merged.by_sym[s].requests > 0)
      present.push_back(static_cast<logs::StringInterner::Symbol>(s));
  }
  std::sort(present.begin(), present.end(),
            [&](logs::StringInterner::Symbol a, logs::StringInterner::Symbol b) {
              return domains.view(a) < domains.view(b);
            });
  std::vector<DomainCacheability> out;
  out.reserve(present.size());
  for (const auto sym : present) {
    const auto& acc = merged.by_sym[sym];
    DomainCacheability dc;
    dc.domain = std::string(domains.view(sym));
    dc.category = industry_of(dc.domain);
    dc.requests = acc.requests;
    dc.cacheable_share = static_cast<double>(acc.cacheable) /
                         static_cast<double>(acc.requests);
    out.push_back(std::move(dc));
  }
  return out;
}

CacheabilityHeatmap cacheability_heatmap(
    const std::vector<DomainCacheability>& domains, std::size_t bins) {
  if (bins < 2)
    throw std::invalid_argument("cacheability_heatmap: bins < 2");
  CacheabilityHeatmap out;
  out.bins = bins;

  std::map<std::string, std::vector<double>> shares_by_category;
  std::size_t never = 0;
  std::size_t always = 0;
  for (const auto& d : domains) {
    shares_by_category[d.category].push_back(d.cacheable_share);
    if (d.cacheable_share <= 0.0) ++never;
    if (d.cacheable_share >= 1.0) ++always;
  }
  if (!domains.empty()) {
    out.never_cache_domain_share =
        static_cast<double>(never) / static_cast<double>(domains.size());
    out.always_cache_domain_share =
        static_cast<double>(always) / static_cast<double>(domains.size());
  }

  for (const auto& [category, shares] : shares_by_category) {
    out.categories.push_back(category);
    std::vector<double> row(bins, 0.0);
    for (double s : shares) {
      auto bin = static_cast<std::size_t>(s * static_cast<double>(bins));
      if (bin >= bins) bin = bins - 1;  // s == 1.0 lands in the last bin
      row[bin] += 1.0;
    }
    for (double& cell : row) cell /= static_cast<double>(shares.size());
    out.density.push_back(std::move(row));
  }
  return out;
}

}  // namespace jsoncdn::core
