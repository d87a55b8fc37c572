// §5.1 flow groupings over a TableView: the paper's flow filters, the
// per-flow share statistics, and deterministic time/client ordering.
#include <gtest/gtest.h>

#include <algorithm>

#include "logs/table.h"

namespace jsoncdn::logs {
namespace {

LogRecord make(double t, const std::string& client, const std::string& url,
               http::Method method = http::Method::kGet,
               CacheStatus cache = CacheStatus::kHit) {
  LogRecord r;
  r.timestamp = t;
  r.client_id = client;
  r.user_agent = "ua";
  r.url = url;
  r.domain = "d.example";
  r.content_type = "application/json";
  r.method = method;
  r.cache_status = cache;
  return r;
}

TEST(ExtractObjectFlows, AppliesClientAndRequestFilters) {
  LogTable ds;
  // Object u1: 10 clients with 10 requests each -> passes.
  for (int c = 0; c < 10; ++c) {
    for (int i = 0; i < 10; ++i) {
      ds.append(make(c * 100.0 + i, "client" + std::to_string(c), "u1"));
    }
  }
  // Object u2: only 3 clients -> dropped.
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 12; ++i) {
      ds.append(make(c * 100.0 + i, "client" + std::to_string(c), "u2"));
    }
  }
  ds.sort_by_time();
  const auto flows = extract_object_flows(TableView(ds), FlowFilter{});
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].url, "u1");
  EXPECT_EQ(flows[0].total_requests, 100u);
  EXPECT_EQ(flows[0].clients.size(), 10u);
}

TEST(ExtractObjectFlows, ShortClientSubflowsCountedButNotAnalyzed) {
  LogTable ds;
  // 10 clients with 10 requests + 5 clients with 2 requests.
  for (int c = 0; c < 10; ++c) {
    for (int i = 0; i < 10; ++i) {
      ds.append(make(i, "big" + std::to_string(c), "u1"));
    }
  }
  for (int c = 0; c < 5; ++c) {
    ds.append(make(1.0, "small" + std::to_string(c), "u1"));
    ds.append(make(2.0, "small" + std::to_string(c), "u1"));
  }
  const auto flows = extract_object_flows(TableView(ds), FlowFilter{});
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].total_requests, 110u);  // includes the short subflows
  EXPECT_EQ(flows[0].clients.size(), 10u);   // analyzable ones only
}

TEST(ExtractObjectFlows, ComputesShareStatistics) {
  LogTable ds;
  FlowFilter permissive{1, 1};
  for (int i = 0; i < 4; ++i) {
    ds.append(make(i, "c", "u1", http::Method::kGet,
                   i < 3 ? CacheStatus::kNotCacheable : CacheStatus::kHit));
  }
  ds.append(make(10.0, "c", "u1", http::Method::kPost,
                 CacheStatus::kNotCacheable));
  const auto flows = extract_object_flows(TableView(ds), permissive);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_DOUBLE_EQ(flows[0].uncacheable_share, 0.8);
  EXPECT_DOUBLE_EQ(flows[0].upload_share, 0.2);
}

TEST(ExtractObjectFlows, TimesAscendingPerFlowAndClient) {
  LogTable ds;
  FlowFilter permissive{2, 1};
  ds.append(make(5.0, "c", "u1"));
  ds.append(make(1.0, "c", "u1"));
  ds.append(make(3.0, "c", "u1"));
  const auto flows = extract_object_flows(TableView(ds), permissive);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_TRUE(std::is_sorted(flows[0].times.begin(), flows[0].times.end()));
  ASSERT_EQ(flows[0].clients.size(), 1u);
  EXPECT_TRUE(std::is_sorted(flows[0].clients[0].times.begin(),
                             flows[0].clients[0].times.end()));
}

TEST(ExtractClientFlows, OrdersByTimeAndFiltersShortFlows) {
  LogTable ds;
  ds.append(make(3.0, "a", "u3"));
  ds.append(make(1.0, "a", "u1"));
  ds.append(make(2.0, "a", "u2"));
  ds.append(make(1.0, "b", "u1"));  // single request -> dropped at min 2
  const auto flows = extract_client_flows(TableView(ds), 2);
  ASSERT_EQ(flows.size(), 1u);
  ASSERT_EQ(flows[0].record_indices.size(), 3u);
  EXPECT_EQ(ds.url(flows[0].record_indices[0]), "u1");
  EXPECT_EQ(ds.url(flows[0].record_indices[1]), "u2");
  EXPECT_EQ(ds.url(flows[0].record_indices[2]), "u3");
}

TEST(ExtractClientFlows, DeterministicOrderAcrossRuns) {
  LogTable ds;
  ds.append(make(1.0, "z", "u1"));
  ds.append(make(1.0, "z", "u2"));
  ds.append(make(1.0, "a", "u1"));
  ds.append(make(1.0, "a", "u2"));
  const auto flows1 = extract_client_flows(TableView(ds), 2);
  const auto flows2 = extract_client_flows(TableView(ds), 2);
  ASSERT_EQ(flows1.size(), 2u);
  EXPECT_EQ(flows1[0].client, flows2[0].client);
  EXPECT_LT(flows1[0].client, flows1[1].client);  // sorted by client key
}

}  // namespace
}  // namespace jsoncdn::logs
