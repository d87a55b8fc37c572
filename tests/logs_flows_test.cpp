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
  const auto flows = extract_object_flows(TableView(ds));
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
  const auto flows = extract_object_flows(TableView(ds));
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].total_requests, 110u);  // includes the short subflows
  EXPECT_EQ(flows[0].clients.size(), 10u);   // analyzable ones only
}

TEST(ExtractObjectFlows, ComputesShareStatistics) {
  LogTable ds;
  // Ten clients repeat one five-request pattern twice, so the object passes
  // the paper's filter: three uncacheable GETs, a cache hit and an
  // uncacheable POST.
  for (int c = 0; c < 10; ++c) {
    for (int i = 0; i < 10; ++i) {
      const bool post = i % 5 == 4;
      ds.append(make(c * 100.0 + i, "c" + std::to_string(c), "u1",
                     post ? http::Method::kPost : http::Method::kGet,
                     i % 5 == 3 ? CacheStatus::kHit
                                : CacheStatus::kNotCacheable));
    }
  }
  const auto flows = extract_object_flows(TableView(ds));
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_DOUBLE_EQ(flows[0].uncacheable_share, 0.8);
  EXPECT_DOUBLE_EQ(flows[0].upload_share, 0.2);
}

TEST(ExtractObjectFlows, TimesAscendingPerFlowAndClient) {
  LogTable ds;
  // Appended in descending time order: the grouping must sort.
  for (int i = 0; i < 10; ++i) {
    for (int c = 0; c < 10; ++c) {
      ds.append(make(100.0 - 10.0 * i - c, "c" + std::to_string(c), "u1"));
    }
  }
  const auto flows = extract_object_flows(TableView(ds));
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_TRUE(std::is_sorted(flows[0].times.begin(), flows[0].times.end()));
  ASSERT_EQ(flows[0].clients.size(), 10u);
  for (const auto& client : flows[0].clients) {
    EXPECT_TRUE(std::is_sorted(client.times.begin(), client.times.end()))
        << client.client;
  }
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
