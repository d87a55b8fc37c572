#include "core/characterization.h"

#include <gtest/gtest.h>

#include "core/taxonomy.h"

namespace jsoncdn::core {
namespace {

logs::LogRecord record(const std::string& ua, http::Method method,
                       logs::CacheStatus cache, const std::string& mime,
                       std::uint64_t bytes = 100,
                       const std::string& domain = "d.example") {
  logs::LogRecord r;
  r.user_agent = ua;
  r.method = method;
  r.cache_status = cache;
  r.content_type = mime;
  r.response_bytes = bytes;
  r.domain = domain;
  r.client_id = "c";
  r.url = "https://" + domain + "/x";
  return r;
}

constexpr const char* kMobileAppUa =
    "NewsReader/5.2.1 (iPhone; iOS 12.4.1; Scale/3.00)";
constexpr const char* kMobileBrowserUa =
    "Mozilla/5.0 (iPhone; CPU iPhone OS 12_4 like Mac OS X) "
    "AppleWebKit/605.1.15 (KHTML, like Gecko) Version/12.1.2 Mobile/15E148 "
    "Safari/604.1";
constexpr const char* kDesktopUa =
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, "
    "like Gecko) Chrome/76.0.3809.100 Safari/537.36";
constexpr const char* kWatchUa =
    "FitnessTracker/6.0.1 (AppleWatch4,4; watchOS 5.3; Scale/2.00)";

TEST(Taxonomy, ClassifyMapsAllAxes) {
  const auto r = record(kMobileAppUa, http::Method::kPost,
                        logs::CacheStatus::kNotCacheable,
                        "application/json", 512);
  const auto c = classify(r);
  EXPECT_TRUE(c.is_json());
  EXPECT_EQ(c.device, http::DeviceType::kMobile);
  EXPECT_EQ(c.agent, http::AgentKind::kNativeApp);
  EXPECT_EQ(c.request, RequestType::kUpload);
  EXPECT_FALSE(c.cacheable_config);
  EXPECT_EQ(c.response_bytes, 512u);
  EXPECT_FALSE(c.is_browser());
}

TEST(Taxonomy, RequestTypeMapping) {
  EXPECT_EQ(classify(record("", http::Method::kGet,
                            logs::CacheStatus::kHit, "application/json"))
                .request,
            RequestType::kDownload);
  EXPECT_EQ(classify(record("", http::Method::kDelete,
                            logs::CacheStatus::kHit, "application/json"))
                .request,
            RequestType::kOther);
}

TEST(CharacterizeSource, CountsDevicesAndBrowsers) {
  logs::LogTable ds;
  for (int i = 0; i < 6; ++i)
    ds.append(record(kMobileAppUa, http::Method::kGet, logs::CacheStatus::kHit,
                     "application/json"));
  for (int i = 0; i < 2; ++i)
    ds.append(record(kMobileBrowserUa, http::Method::kGet,
                     logs::CacheStatus::kHit, "application/json"));
  ds.append(record(kDesktopUa, http::Method::kGet, logs::CacheStatus::kHit,
                   "application/json"));
  ds.append(record(kWatchUa, http::Method::kGet, logs::CacheStatus::kHit,
                   "application/json"));
  ds.append(record("", http::Method::kGet, logs::CacheStatus::kHit,
                   "application/json"));
  const auto source = characterize_source(logs::TableView(ds));
  EXPECT_EQ(source.total_requests, 11u);
  EXPECT_NEAR(source.device_share(http::DeviceType::kMobile), 8.0 / 11, 1e-9);
  EXPECT_NEAR(source.device_share(http::DeviceType::kDesktop), 1.0 / 11, 1e-9);
  EXPECT_NEAR(source.device_share(http::DeviceType::kEmbedded), 1.0 / 11,
              1e-9);
  EXPECT_NEAR(source.device_share(http::DeviceType::kUnknown), 1.0 / 11, 1e-9);
  EXPECT_NEAR(source.browser_share(), 3.0 / 11, 1e-9);
  EXPECT_NEAR(source.mobile_browser_share(), 2.0 / 11, 1e-9);
  EXPECT_NEAR(source.non_browser_share(), 8.0 / 11, 1e-9);
  EXPECT_EQ(source.missing_ua_requests, 1u);
  // 4 distinct non-empty UA strings: app, mobile browser, desktop, watch.
  EXPECT_EQ(source.total_ua_strings, 4u);
  EXPECT_NEAR(source.ua_string_share(http::DeviceType::kMobile), 0.5, 1e-9);
}

TEST(CharacterizeMethods, SharesMatchPaperDefinitions) {
  logs::LogTable ds;
  for (int i = 0; i < 84; ++i)
    ds.append(record("", http::Method::kGet, logs::CacheStatus::kHit,
                     "application/json"));
  for (int i = 0; i < 15; ++i)
    ds.append(record("", http::Method::kPost, logs::CacheStatus::kNotCacheable,
                     "application/json"));
  ds.append(record("", http::Method::kPut, logs::CacheStatus::kNotCacheable,
                   "application/json"));
  const auto mix = characterize_methods(logs::TableView(ds));
  EXPECT_EQ(mix.total, 100u);
  EXPECT_DOUBLE_EQ(mix.get_share(), 0.84);
  EXPECT_NEAR(mix.post_share_of_non_get(), 15.0 / 16.0, 1e-9);
}

TEST(CharacterizeCacheability, SplitsByConfig) {
  logs::LogTable ds;
  for (int i = 0; i < 55; ++i)
    ds.append(record("", http::Method::kGet, logs::CacheStatus::kNotCacheable,
                     "application/json"));
  for (int i = 0; i < 30; ++i)
    ds.append(record("", http::Method::kGet, logs::CacheStatus::kHit,
                     "application/json"));
  for (int i = 0; i < 15; ++i)
    ds.append(record("", http::Method::kGet, logs::CacheStatus::kMiss,
                     "application/json"));
  const auto cache = characterize_cacheability(logs::TableView(ds));
  EXPECT_DOUBLE_EQ(cache.uncacheable_share(), 0.55);
  EXPECT_DOUBLE_EQ(cache.hit_share(), 0.30);
}

TEST(CompareSizes, PercentileRatios) {
  logs::LogTable ds;
  for (const auto bytes : {100, 200, 300, 400}) {
    ds.append(record("", http::Method::kGet, logs::CacheStatus::kHit,
                     "application/json", bytes));
  }
  for (const auto bytes : {1000, 2000, 3000, 4000}) {
    ds.append(record("", http::Method::kGet, logs::CacheStatus::kHit,
                     "text/html", bytes));
  }
  const auto sizes = compare_sizes(logs::TableView(ds));
  EXPECT_EQ(sizes.json.count, 4u);
  EXPECT_EQ(sizes.html.count, 4u);
  EXPECT_DOUBLE_EQ(sizes.p50_ratio(), 0.1);
  EXPECT_DOUBLE_EQ(sizes.p75_ratio(), 0.1);
}

TEST(CompareSizes, EmptyClassesYieldZeroRatios) {
  logs::LogTable ds;
  const auto sizes = compare_sizes(logs::TableView(ds));
  EXPECT_DOUBLE_EQ(sizes.p50_ratio(), 0.0);
}

TEST(DomainCacheability, DownloadOnlyAndPerDomainShares) {
  logs::LogTable ds;
  // Domain A: 3 cacheable GETs, 1 uncacheable GET, plus POSTs that must be
  // ignored by the Fig. 4 view.
  for (int i = 0; i < 3; ++i)
    ds.append(record("", http::Method::kGet, logs::CacheStatus::kHit,
                     "application/json", 10, "a.example"));
  ds.append(record("", http::Method::kGet, logs::CacheStatus::kNotCacheable,
                   "application/json", 10, "a.example"));
  for (int i = 0; i < 10; ++i)
    ds.append(record("", http::Method::kPost, logs::CacheStatus::kNotCacheable,
                     "application/json", 10, "a.example"));
  // Domain B: never cacheable.
  for (int i = 0; i < 5; ++i)
    ds.append(record("", http::Method::kGet, logs::CacheStatus::kNotCacheable,
                     "application/json", 10, "b.example"));

  const IndustryLookup lookup = [](std::string_view domain) {
    return domain == "a.example" ? std::string("News/Media")
                                 : std::string("Financial Services");
  };
  const auto domains = domain_cacheability(logs::TableView(ds), lookup);
  ASSERT_EQ(domains.size(), 2u);
  EXPECT_EQ(domains[0].domain, "a.example");
  EXPECT_DOUBLE_EQ(domains[0].cacheable_share, 0.75);
  EXPECT_EQ(domains[0].requests, 4u);  // GETs only
  EXPECT_DOUBLE_EQ(domains[1].cacheable_share, 0.0);
  EXPECT_EQ(domains[1].category, "Financial Services");
}

TEST(DomainCacheability, NullLookupThrows) {
  logs::LogTable ds;
  EXPECT_THROW((void)domain_cacheability(logs::TableView(ds), nullptr),
               std::invalid_argument);
}

TEST(CacheabilityHeatmap, BinsEdgesAndAggregates) {
  std::vector<DomainCacheability> domains = {
      {"d1", "A", 10, 0.0},  {"d2", "A", 10, 0.0}, {"d3", "A", 10, 1.0},
      {"d4", "B", 10, 0.45}, {"d5", "B", 10, 1.0},
  };
  const auto heatmap = cacheability_heatmap(domains, 10);
  ASSERT_EQ(heatmap.categories.size(), 2u);
  EXPECT_EQ(heatmap.categories[0], "A");
  // Category A: 2/3 in bin 0 (never), 1/3 in bin 9 (always).
  EXPECT_NEAR(heatmap.density[0][0], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(heatmap.density[0][9], 1.0 / 3.0, 1e-9);
  // Category B: 0.45 -> bin 4; 1.0 -> bin 9.
  EXPECT_NEAR(heatmap.density[1][4], 0.5, 1e-9);
  EXPECT_NEAR(heatmap.density[1][9], 0.5, 1e-9);
  EXPECT_NEAR(heatmap.never_cache_domain_share, 0.4, 1e-9);
  EXPECT_NEAR(heatmap.always_cache_domain_share, 0.4, 1e-9);
}

TEST(CacheabilityHeatmap, RowsSumToOne) {
  std::vector<DomainCacheability> domains = {
      {"d1", "A", 1, 0.2}, {"d2", "A", 1, 0.7}, {"d3", "A", 1, 0.99},
  };
  const auto heatmap = cacheability_heatmap(domains, 5);
  double sum = 0.0;
  for (const double cell : heatmap.density[0]) sum += cell;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(CacheabilityHeatmap, RejectsTooFewBins) {
  EXPECT_THROW((void)cacheability_heatmap({}, 1), std::invalid_argument);
}

}  // namespace
}  // namespace jsoncdn::core
