#include "workload/catalog.h"

#include <gtest/gtest.h>

#include "http/url.h"
#include "workload/industry.h"

namespace jsoncdn::workload {
namespace {

CatalogConfig small_config() {
  CatalogConfig config;
  config.domains_per_industry = 3;
  return config;
}

TEST(ObjectCatalog, AddAndFind) {
  ObjectCatalog catalog;
  ObjectSpec spec;
  spec.url = "https://h/x";
  spec.domain = "h";
  const auto idx = catalog.add(spec);
  EXPECT_EQ(idx, 0u);
  ASSERT_NE(catalog.find("https://h/x"), nullptr);
  EXPECT_EQ(catalog.find("https://h/x")->domain, "h");
  EXPECT_EQ(catalog.find("https://h/missing"), nullptr);
  EXPECT_EQ(catalog.at(0).url, "https://h/x");
}

TEST(ObjectCatalog, DuplicateUrlThrows) {
  ObjectCatalog catalog;
  ObjectSpec spec;
  spec.url = "https://h/x";
  catalog.add(spec);
  EXPECT_THROW(catalog.add(spec), std::invalid_argument);
}

TEST(ObjectCatalog, AtThrowsOutOfRange) {
  ObjectCatalog catalog;
  EXPECT_THROW((void)catalog.at(0), std::out_of_range);
}

TEST(DomainCatalog, GeneratesExpectedCounts) {
  DomainCatalog catalog(small_config(), stats::Rng(1));
  EXPECT_EQ(catalog.domains().size(), 3u * kIndustryCount);
  for (const auto& d : catalog.domains()) {
    EXPECT_EQ(d.json_objects.size(), CatalogConfig::json_objects_per_domain);
    EXPECT_EQ(d.html_objects.size(), CatalogConfig::html_objects_per_domain);
    EXPECT_EQ(d.asset_objects.size(), CatalogConfig::asset_objects_per_domain);
    EXPECT_TRUE(d.telemetry_object.has_value());
    EXPECT_TRUE(d.poll_object.has_value());
    EXPECT_EQ(d.page_assets.size(), d.html_objects.size());
    EXPECT_EQ(d.page_xhrs.size(), d.html_objects.size());
  }
}

TEST(DomainCatalog, DeterministicForSameSeed) {
  DomainCatalog a(small_config(), stats::Rng(7));
  DomainCatalog b(small_config(), stats::Rng(7));
  ASSERT_EQ(a.objects().size(), b.objects().size());
  for (std::size_t i = 0; i < a.objects().size(); ++i) {
    EXPECT_EQ(a.objects().at(i).url, b.objects().at(i).url);
    EXPECT_EQ(a.objects().at(i).cacheable, b.objects().at(i).cacheable);
    EXPECT_EQ(a.objects().at(i).body_bytes, b.objects().at(i).body_bytes);
  }
}

TEST(DomainCatalog, AllUrlsParse) {
  DomainCatalog catalog(small_config(), stats::Rng(2));
  for (const auto& obj : catalog.objects().objects()) {
    const auto parsed = http::parse_url(obj.url);
    ASSERT_TRUE(parsed.has_value()) << obj.url;
    EXPECT_EQ(parsed->host, obj.domain) << obj.url;
  }
}

TEST(DomainCatalog, TelemetryEndpointsAreUncacheable) {
  DomainCatalog catalog(small_config(), stats::Rng(3));
  for (const auto& d : catalog.domains()) {
    EXPECT_FALSE(catalog.objects().at(*d.telemetry_object).cacheable);
  }
}

TEST(DomainCatalog, NeverCacheDomainsHaveNoCacheableJson) {
  DomainCatalog catalog(small_config(), stats::Rng(4));
  for (const auto& d : catalog.domains()) {
    if (d.cacheable_share > 0.0) continue;
    for (const auto idx : d.json_objects) {
      EXPECT_FALSE(catalog.objects().at(idx).cacheable) << d.name;
    }
    EXPECT_FALSE(catalog.objects().at(*d.poll_object).cacheable);
  }
}

TEST(DomainCatalog, AssetsAlwaysCacheable) {
  DomainCatalog catalog(small_config(), stats::Rng(5));
  for (const auto& d : catalog.domains()) {
    for (const auto idx : d.asset_objects) {
      EXPECT_TRUE(catalog.objects().at(idx).cacheable);
    }
  }
}

TEST(DomainCatalog, SampleDomainFollowsPopularity) {
  DomainCatalog catalog(small_config(), stats::Rng(6));
  stats::Rng rng(100);
  std::vector<int> counts(catalog.domains().size(), 0);
  for (int i = 0; i < 20000; ++i) ++counts[catalog.sample_domain(rng)];
  // The most popular domain should be sampled noticeably more than the
  // least popular one.
  const auto [min_it, max_it] =
      std::minmax_element(counts.begin(), counts.end());
  EXPECT_GT(*max_it, *min_it * 2);
}

TEST(DomainCatalog, RejectsZeroDomains) {
  CatalogConfig config;
  config.domains_per_industry = 0;
  EXPECT_THROW(DomainCatalog(config, stats::Rng(1)), std::invalid_argument);
}

TEST(SizeParams, JsonSmallerThanHtmlAtMedian) {
  const auto json = size_params(http::ContentClass::kJson);
  const auto html = size_params(http::ContentClass::kHtml);
  // Lognormal medians: exp(log_mean); HTML also carries a heavy tail.
  EXPECT_LT(json.log_mean, html.log_mean + 1.0);
  EXPECT_GT(html.tail_prob, json.tail_prob);
}

TEST(ContentTypeFor, AllClassesHaveTypes) {
  for (const auto c :
       {http::ContentClass::kJson, http::ContentClass::kHtml,
        http::ContentClass::kCss, http::ContentClass::kJavascript,
        http::ContentClass::kImage, http::ContentClass::kVideo}) {
    const auto ct = content_type_for(c);
    EXPECT_NE(ct.find('/'), std::string::npos);
    EXPECT_EQ(http::classify_content(ct), c);
  }
}

TEST(Industry, CacheabilityMixtureMatchesPaperAggregates) {
  // Across all categories, ~50% of domains never cache and ~30% always
  // cache (§4). Check the mixture parameters aggregate to that.
  double never = 0.0;
  double always = 0.0;
  for (const auto ind : kAllIndustries) {
    never += cacheability_profile(ind).never_share;
    always += cacheability_profile(ind).always_share;
  }
  never /= kIndustryCount;
  always /= kIndustryCount;
  EXPECT_NEAR(never, 0.50, 0.06);
  EXPECT_NEAR(always, 0.30, 0.06);
}

TEST(Industry, PersonalizedCategoriesRarelyCache) {
  for (const auto ind : {Industry::kFinancialServices, Industry::kStreaming,
                         Industry::kGaming}) {
    EXPECT_GT(cacheability_profile(ind).never_share, 0.6) << to_string(ind);
  }
}

TEST(Industry, StaticContentCategoriesMostlyCache) {
  for (const auto ind :
       {Industry::kNewsMedia, Industry::kSports, Industry::kEntertainment}) {
    EXPECT_GT(cacheability_profile(ind).always_share, 0.5) << to_string(ind);
    EXPECT_LT(cacheability_profile(ind).never_share, 0.25) << to_string(ind);
  }
}

TEST(Industry, SampleShareRespectsMixture) {
  stats::Rng rng(42);
  int never = 0;
  int always = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double s =
        sample_domain_cacheable_share(Industry::kFinancialServices, rng);
    if (s == 0.0) ++never;
    if (s == 1.0) ++always;
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  const auto& p = cacheability_profile(Industry::kFinancialServices);
  EXPECT_NEAR(static_cast<double>(never) / n, p.never_share, 0.02);
  EXPECT_NEAR(static_cast<double>(always) / n, p.always_share, 0.02);
}

}  // namespace
}  // namespace jsoncdn::workload
