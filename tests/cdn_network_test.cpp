#include "cdn/network.h"

#include <gtest/gtest.h>

namespace jsoncdn::cdn {
namespace {

workload::ObjectCatalog one_object_catalog() {
  workload::ObjectCatalog catalog;
  workload::ObjectSpec obj;
  obj.url = "https://d.example/x";
  obj.domain = "d.example";
  obj.content_type = "application/json";
  obj.cacheable = true;
  obj.ttl_seconds = 600.0;
  obj.body_bytes = 100;
  catalog.add(obj);
  return catalog;
}

workload::RequestEvent request(const std::string& addr, double t) {
  workload::RequestEvent ev;
  ev.time = t;
  ev.client_address = addr;
  ev.user_agent = "ua";
  ev.url = "https://d.example/x";
  return ev;
}

TEST(CdnNetwork, ClientMappingIsSticky) {
  const auto catalog = one_object_catalog();
  CdnNetwork network(catalog, {});
  const auto e = network.edge_for("10.0.0.1");
  for (int i = 0; i < 10; ++i) EXPECT_EQ(network.edge_for("10.0.0.1"), e);
  EXPECT_LT(e, network.edges().size());
}

TEST(CdnNetwork, PerClientCachesAreIndependent) {
  const auto catalog = one_object_catalog();
  CdnNetwork network(catalog, {});
  // Find two clients on different edges.
  std::string a = "10.0.0.1";
  std::string b;
  for (int i = 2; i < 100; ++i) {
    b = "10.0.0." + std::to_string(i);
    if (network.edge_for(b) != network.edge_for(a)) break;
  }
  const auto ds = network.run({request(a, 0.0), request(b, 1.0)});
  // Both are first-touch on their own edge: two misses, no hit.
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.cache_status(0), logs::CacheStatus::kMiss);
  EXPECT_EQ(ds.cache_status(1), logs::CacheStatus::kMiss);
}

TEST(CdnNetwork, SameEdgeSharesCacheAcrossClients) {
  const auto catalog = one_object_catalog();
  CdnNetwork network(catalog, {});
  // Find a second client on the first one's edge.
  const std::string a = "10.0.0.1";
  std::string b;
  for (int i = 2; i < 100; ++i) {
    b = "10.0.0." + std::to_string(i);
    if (network.edge_for(b) == network.edge_for(a)) break;
  }
  ASSERT_EQ(network.edge_for(b), network.edge_for(a));
  const auto ds = network.run({request(a, 0.0), request(b, 1.0)});
  EXPECT_EQ(ds.cache_status(0), logs::CacheStatus::kMiss);
  EXPECT_EQ(ds.cache_status(1), logs::CacheStatus::kHit);
}

TEST(CdnNetwork, DatasetSortedByTime) {
  const auto catalog = one_object_catalog();
  CdnNetwork network(catalog, {});
  const auto ds =
      network.run({request("a", 5.0), request("b", 1.0), request("c", 3.0)});
  ASSERT_EQ(ds.size(), 3u);
  EXPECT_LE(ds.timestamp(0), ds.timestamp(1));
  EXPECT_LE(ds.timestamp(1), ds.timestamp(2));
}

TEST(CdnNetwork, TotalMetricsAggregateAcrossEdges) {
  const auto catalog = one_object_catalog();
  CdnNetwork network(catalog, {});
  std::vector<workload::RequestEvent> events;
  for (int i = 0; i < 50; ++i) {
    events.push_back(request("10.9.8." + std::to_string(i), i));
  }
  (void)network.run(events);
  const auto total = network.total_metrics();
  EXPECT_EQ(total.requests(), 50u);
  EXPECT_EQ(total.hits() + total.misses(), 50u);
  EXPECT_EQ(total.latencies().size(), 50u);
}

TEST(DeliveryMetrics, RatioAccessors) {
  DeliveryMetrics m;
  EXPECT_DOUBLE_EQ(m.cacheable_hit_ratio(), 0.0);
  m.record(true, true, 10, 0.01);
  m.record(true, false, 10, 0.10);
  m.record(false, false, 10, 0.10);
  EXPECT_DOUBLE_EQ(m.cacheable_hit_ratio(), 0.5);
  EXPECT_NEAR(m.overall_hit_ratio(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.origin_share(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(m.bytes_served(), 30u);
}

TEST(DeliveryMetrics, MergeSumsEverything) {
  DeliveryMetrics a;
  DeliveryMetrics b;
  a.record(true, true, 5, 0.01);
  b.record(false, false, 7, 0.02);
  b.record_prefetch(100);
  b.mark_prefetch_useful();
  a.merge(b);
  EXPECT_EQ(a.requests(), 2u);
  EXPECT_EQ(a.bytes_served(), 12u);
  EXPECT_EQ(a.prefetches_issued(), 1u);
  EXPECT_EQ(a.useful_prefetches(), 1u);
  EXPECT_EQ(a.latencies().size(), 2u);
}

TEST(DeliveryMetrics, PrefetchWaste) {
  DeliveryMetrics m;
  EXPECT_DOUBLE_EQ(m.prefetch_waste(), 0.0);
  m.record_prefetch(10);
  m.record_prefetch(10);
  m.mark_prefetch_useful();
  EXPECT_DOUBLE_EQ(m.prefetch_waste(), 0.5);
}

}  // namespace
}  // namespace jsoncdn::cdn
