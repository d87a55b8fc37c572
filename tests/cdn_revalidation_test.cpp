// Conditional revalidation (If-None-Match / 304): stale cached copies are
// validated with the origin instead of re-transferred.
#include <gtest/gtest.h>

#include "cdn/edge.h"
#include "cdn/origin.h"

namespace jsoncdn::cdn {
namespace {

class RevalidationFixture : public ::testing::Test {
 protected:
  RevalidationFixture() : origin_(catalog_), anonymizer_(9) {}

  void SetUp() override {
    workload::ObjectSpec obj;
    obj.url = "https://d/x";
    obj.domain = "d";
    obj.content_type = "application/json";
    obj.cacheable = true;
    obj.ttl_seconds = 60.0;
    obj.body_bytes = 100'000;
    catalog_.add(obj);

    EdgeParams params;
    params.enable_revalidation = true;
    edge_ = std::make_unique<EdgeServer>(0, origin_, anonymizer_, params);
  }

  static workload::RequestEvent request(double t) {
    workload::RequestEvent ev;
    ev.time = t;
    ev.client_address = "10.0.0.1";
    ev.user_agent = "ua";
    ev.url = "https://d/x";
    return ev;
  }

  workload::ObjectCatalog catalog_;
  Origin origin_;
  logs::Anonymizer anonymizer_;
  std::unique_ptr<EdgeServer> edge_;
};

TEST_F(RevalidationFixture, StaleEntryRevalidatesInsteadOfRefetching) {
  const auto first = edge_->handle(request(0.0));
  EXPECT_EQ(first.cache_status, logs::CacheStatus::kMiss);
  const auto bytes_after_miss = origin_.bytes_served();

  // Past TTL: revalidation, not refetch.
  const auto second = edge_->handle(request(61.0));
  EXPECT_EQ(second.cache_status, logs::CacheStatus::kRefreshHit);
  EXPECT_EQ(origin_.bytes_served(), bytes_after_miss);  // 304: no body
  EXPECT_EQ(edge_->metrics().refresh_hits(), 1u);
}

TEST_F(RevalidationFixture, RevalidationRefreshesTtl) {
  (void)edge_->handle(request(0.0));
  (void)edge_->handle(request(61.0));  // refresh
  const auto third = edge_->handle(request(100.0));  // within renewed TTL
  EXPECT_EQ(third.cache_status, logs::CacheStatus::kHit);
}

TEST_F(RevalidationFixture, RefreshIsFasterThanMissSlowerThanHit) {
  (void)edge_->handle(request(0.0));    // miss
  (void)edge_->handle(request(1.0));    // hit
  (void)edge_->handle(request(61.5));   // refresh
  const auto& latencies = edge_->metrics().latencies();
  ASSERT_EQ(latencies.size(), 3u);
  EXPECT_LT(latencies[2], latencies[0]);  // refresh < miss (no transfer)
  EXPECT_GT(latencies[2], latencies[1]);  // refresh > hit (origin RTT)
}

TEST_F(RevalidationFixture, RefreshCountsAsHitInOffload) {
  (void)edge_->handle(request(0.0));
  (void)edge_->handle(request(61.0));
  EXPECT_EQ(edge_->metrics().hits(), 1u);  // the refresh
  EXPECT_EQ(edge_->metrics().misses(), 1u);
}

TEST_F(RevalidationFixture, EvictedEntryCannotRevalidate) {
  (void)edge_->handle(request(0.0));
  // Force eviction by filling a tiny cache... use a dedicated edge instead.
  EdgeParams params;
  params.enable_revalidation = true;
  params.cache_capacity_bytes = 10;  // object never admitted
  EdgeServer tiny(1, origin_, anonymizer_, params);
  (void)tiny.handle(request(0.0));
  const auto again = tiny.handle(request(61.0));
  EXPECT_EQ(again.cache_status, logs::CacheStatus::kMiss);
}

TEST_F(RevalidationFixture, DisabledFlagFallsBackToFullMiss) {
  EdgeParams params;  // enable_revalidation defaults to false
  EdgeServer plain(2, origin_, anonymizer_, params);
  (void)plain.handle(request(0.0));
  const auto second = plain.handle(request(61.0));
  EXPECT_EQ(second.cache_status, logs::CacheStatus::kMiss);
  EXPECT_EQ(plain.metrics().refresh_hits(), 0u);
}

TEST(CacheStalePeek, ReportsOnlyExpiredEntries) {
  LruCache cache(1024);
  cache.insert("k", 100, 10.0, 0.0);
  EXPECT_FALSE(cache.peek_stale("k", 5.0).has_value());   // still fresh
  ASSERT_TRUE(cache.peek_stale("k", 10.0).has_value());   // expired
  EXPECT_EQ(*cache.peek_stale("k", 10.0), 100u);
  EXPECT_FALSE(cache.peek_stale("missing", 10.0).has_value());
  // Peek does not erase: a later insert refreshes in place.
  cache.insert("k", 100, 10.0, 20.0);
  EXPECT_TRUE(cache.contains("k", 25.0));
}

TEST(RefreshStatus, SerializesInLogSchema) {
  logs::CacheStatus out;
  ASSERT_TRUE(logs::parse_cache_status("REFRESH", out));
  EXPECT_EQ(out, logs::CacheStatus::kRefreshHit);
  EXPECT_EQ(logs::to_string(logs::CacheStatus::kRefreshHit), "REFRESH");
}

}  // namespace
}  // namespace jsoncdn::cdn
