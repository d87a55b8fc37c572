#include <gtest/gtest.h>

#include "cdn/edge.h"
#include "cdn/network.h"
#include "cdn/origin.h"

namespace jsoncdn::cdn {
namespace {

// Minimal catalog: one cacheable object, one uncacheable, one upload target.
class EdgeFixture : public ::testing::Test {
 protected:
  EdgeFixture()
      : origin_(catalog_),
        anonymizer_(123),
        edge_(0, origin_, anonymizer_, EdgeParams{}) {}

  void SetUp() override {
    workload::ObjectSpec cacheable;
    cacheable.url = "https://d.example/cacheable";
    cacheable.domain = "d.example";
    cacheable.content = http::ContentClass::kJson;
    cacheable.content_type = "application/json";
    cacheable.cacheable = true;
    cacheable.ttl_seconds = 60.0;
    cacheable.body_bytes = 1000;
    catalog_.add(cacheable);

    workload::ObjectSpec dynamic;
    dynamic.url = "https://d.example/dynamic";
    dynamic.domain = "d.example";
    dynamic.content_type = "application/json";
    dynamic.cacheable = false;
    dynamic.body_bytes = 500;
    catalog_.add(dynamic);
  }

  static workload::RequestEvent request(const std::string& url, double t,
                                        http::Method m = http::Method::kGet) {
    workload::RequestEvent ev;
    ev.time = t;
    ev.client_address = "10.1.2.3";
    ev.user_agent = "TestApp/1.0";
    ev.method = m;
    ev.url = url;
    if (http::is_upload(m)) ev.request_bytes = 64;
    return ev;
  }

  workload::ObjectCatalog catalog_;
  Origin origin_;
  logs::Anonymizer anonymizer_;
  EdgeServer edge_;
};

TEST_F(EdgeFixture, FirstGetMissesThenHits) {
  const auto r1 = edge_.handle(request("https://d.example/cacheable", 0.0));
  EXPECT_EQ(r1.cache_status, logs::CacheStatus::kMiss);
  EXPECT_EQ(r1.status, 200);
  EXPECT_EQ(r1.response_bytes, 1000u);
  const auto r2 = edge_.handle(request("https://d.example/cacheable", 1.0));
  EXPECT_EQ(r2.cache_status, logs::CacheStatus::kHit);
  EXPECT_EQ(edge_.metrics().hits(), 1u);
  EXPECT_EQ(edge_.metrics().misses(), 1u);
}

TEST_F(EdgeFixture, HitIsFasterThanMiss) {
  const auto r1 = edge_.handle(request("https://d.example/cacheable", 0.0));
  const auto r2 = edge_.handle(request("https://d.example/cacheable", 1.0));
  (void)r1;
  (void)r2;
  const auto& latencies = edge_.metrics().latencies();
  ASSERT_EQ(latencies.size(), 2u);
  EXPECT_GT(latencies[0], latencies[1]);
}

TEST_F(EdgeFixture, TtlExpiryCausesRefetch) {
  (void)edge_.handle(request("https://d.example/cacheable", 0.0));
  const auto r = edge_.handle(request("https://d.example/cacheable", 61.0));
  EXPECT_EQ(r.cache_status, logs::CacheStatus::kMiss);
}

TEST_F(EdgeFixture, UncacheableTunnelsEveryTime) {
  for (double t : {0.0, 1.0, 2.0}) {
    const auto r = edge_.handle(request("https://d.example/dynamic", t));
    EXPECT_EQ(r.cache_status, logs::CacheStatus::kNotCacheable);
  }
  EXPECT_EQ(edge_.metrics().uncacheable(), 3u);
  EXPECT_EQ(edge_.metrics().hits(), 0u);
}

TEST_F(EdgeFixture, UploadsNeverCached) {
  const auto r1 = edge_.handle(
      request("https://d.example/cacheable", 0.0, http::Method::kPost));
  EXPECT_EQ(r1.cache_status, logs::CacheStatus::kNotCacheable);
  EXPECT_EQ(r1.request_bytes, 64u);
  // A subsequent GET still misses: the POST must not have primed the cache.
  const auto r2 = edge_.handle(request("https://d.example/cacheable", 1.0));
  EXPECT_EQ(r2.cache_status, logs::CacheStatus::kMiss);
}

TEST_F(EdgeFixture, UnknownUrlIs404Uncacheable) {
  const auto r = edge_.handle(request("https://d.example/missing", 0.0));
  EXPECT_EQ(r.status, 404);
  EXPECT_EQ(r.cache_status, logs::CacheStatus::kNotCacheable);
  EXPECT_EQ(r.response_bytes, 0u);
}

TEST_F(EdgeFixture, LogRecordCarriesAnonymizedClientAndMetadata) {
  const auto r = edge_.handle(request("https://d.example/cacheable", 5.5));
  EXPECT_EQ(r.client_id, anonymizer_.pseudonym("10.1.2.3"));
  EXPECT_EQ(r.user_agent, "TestApp/1.0");
  EXPECT_EQ(r.domain, "d.example");
  EXPECT_EQ(r.content_type, "application/json");
  EXPECT_DOUBLE_EQ(r.timestamp, 5.5);
  EXPECT_EQ(r.edge_id, 0u);
}

// Static prefetch policy: always suggests one fixed URL.
class FixedPolicy final : public PrefetchPolicy {
 public:
  explicit FixedPolicy(std::string url) : url_(std::move(url)) {}
  std::vector<std::string> candidates(const logs::LogRecord&) override {
    return {url_};
  }

 private:
  std::string url_;
};

TEST_F(EdgeFixture, PrefetchWarmsCacheAndCountsUseful) {
  FixedPolicy policy("https://d.example/cacheable");
  // Serving the dynamic object triggers a prefetch of the cacheable one.
  (void)edge_.handle(request("https://d.example/dynamic", 0.0), &policy);
  EXPECT_EQ(edge_.metrics().prefetches_issued(), 1u);
  const auto r = edge_.handle(request("https://d.example/cacheable", 1.0));
  EXPECT_EQ(r.cache_status, logs::CacheStatus::kHit);
  EXPECT_EQ(edge_.metrics().useful_prefetches(), 1u);
  EXPECT_DOUBLE_EQ(edge_.metrics().prefetch_waste(), 0.0);
}

TEST_F(EdgeFixture, PrefetchSkipsUncacheableAndUnknown) {
  FixedPolicy dynamic_policy("https://d.example/dynamic");
  (void)edge_.handle(request("https://d.example/cacheable", 0.0),
                     &dynamic_policy);
  FixedPolicy missing_policy("https://d.example/missing");
  (void)edge_.handle(request("https://d.example/cacheable", 1.0),
                     &missing_policy);
  EXPECT_EQ(edge_.metrics().prefetches_issued(), 0u);
}

TEST_F(EdgeFixture, PrefetchDoesNotRefetchCachedObject) {
  FixedPolicy policy("https://d.example/cacheable");
  (void)edge_.handle(request("https://d.example/cacheable", 0.0));  // now cached
  const auto before = origin_.fetch_count();
  (void)edge_.handle(request("https://d.example/dynamic", 1.0), &policy);
  // Only the dynamic request itself should have touched origin.
  EXPECT_EQ(origin_.fetch_count(), before + 1);
}

TEST(Origin, LatencyIncludesRttProcessingAndTransfer) {
  workload::ObjectCatalog catalog;
  workload::ObjectSpec obj;
  obj.url = "https://d/x";
  obj.body_bytes = 5'000'000;
  catalog.add(obj);
  Origin origin(catalog);
  const auto result = origin.fetch("https://d/x");
  ASSERT_NE(result.object, nullptr);
  // 80 ms round trip + 5 ms processing + 5 MB at 5 MB/s.
  EXPECT_NEAR(result.latency_seconds, 0.08 + 0.005 + 1.0, 1e-9);
  EXPECT_EQ(origin.bytes_served(), 5'000'000u);
}

TEST(Origin, NotFoundStillCostsRoundTrip) {
  workload::ObjectCatalog catalog;
  Origin origin(catalog);
  const auto result = origin.fetch("https://d/missing");
  EXPECT_EQ(result.object, nullptr);
  EXPECT_GT(result.latency_seconds, 0.0);
}

}  // namespace
}  // namespace jsoncdn::cdn
