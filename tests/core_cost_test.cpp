#include "core/cost.h"

#include <gtest/gtest.h>

namespace jsoncdn::core {
namespace {

logs::LogRecord rec(const std::string& mime, std::uint64_t bytes,
                    logs::CacheStatus cache = logs::CacheStatus::kHit) {
  logs::LogRecord r;
  r.content_type = mime;
  r.response_bytes = bytes;
  r.cache_status = cache;
  r.url = "https://d/x";
  return r;
}

TEST(AnalyzeCosts, SplitsFixedAndPerByteComponents) {
  logs::LogTable ds;
  ds.append(rec("application/json", 1024));  // 1 KB, cache hit
  CostModel model;
  model.cpu_per_request = 1.0;
  model.cpu_per_kilobyte = 0.5;
  model.network_per_kilobyte = 2.0;
  model.origin_per_request = 10.0;
  const auto report = analyze_costs(logs::TableView(ds), model);
  const auto* json = report.find(http::ContentClass::kJson);
  ASSERT_NE(json, nullptr);
  EXPECT_DOUBLE_EQ(json->cpu_cost, 1.5);
  EXPECT_DOUBLE_EQ(json->network_cost, 2.0);
  EXPECT_DOUBLE_EQ(json->origin_cost, 0.0);  // hit: no origin
  EXPECT_DOUBLE_EQ(json->total_cost(), 3.5);
  EXPECT_DOUBLE_EQ(report.total_cost, 3.5);
}

TEST(AnalyzeCosts, OriginCostChargedForMissesAndTunnels) {
  logs::LogTable ds;
  ds.append(rec("application/json", 1024, logs::CacheStatus::kMiss));
  ds.append(rec("application/json", 1024, logs::CacheStatus::kNotCacheable));
  ds.append(rec("application/json", 1024, logs::CacheStatus::kHit));
  CostModel model;
  model.origin_per_request = 5.0;
  const auto report = analyze_costs(logs::TableView(ds), model);
  EXPECT_DOUBLE_EQ(report.find(http::ContentClass::kJson)->origin_cost, 10.0);
}

TEST(AnalyzeCosts, SmallBodiesCostMorePerByte) {
  // The paper's provisioning argument: a 512 B JSON response and a 64 KB
  // HTML response carry the same fixed CPU cost, so JSON's cost-per-byte is
  // far higher.
  logs::LogTable ds;
  for (int i = 0; i < 100; ++i) ds.append(rec("application/json", 512));
  for (int i = 0; i < 100; ++i) ds.append(rec("text/html", 64 * 1024));
  const auto report = analyze_costs(logs::TableView(ds));
  const auto* json = report.find(http::ContentClass::kJson);
  const auto* html = report.find(http::ContentClass::kHtml);
  ASSERT_NE(json, nullptr);
  ASSERT_NE(html, nullptr);
  EXPECT_GT(json->cost_per_kilobyte(), html->cost_per_kilobyte() * 5.0);
  EXPECT_GT(json->cpu_share(), html->cpu_share());
}

TEST(AnalyzeCosts, ClassesSortedByTotalCost) {
  logs::LogTable ds;
  for (int i = 0; i < 10; ++i) ds.append(rec("text/html", 1 << 20));
  ds.append(rec("application/json", 128));
  const auto report = analyze_costs(logs::TableView(ds));
  ASSERT_EQ(report.by_class.size(), 2u);
  EXPECT_EQ(report.by_class[0].content, http::ContentClass::kHtml);
  EXPECT_GE(report.by_class[0].total_cost(),
            report.by_class[1].total_cost());
}

TEST(AnalyzeCosts, EmptyDatasetYieldsEmptyReport) {
  const auto report = analyze_costs(logs::TableView(logs::LogTable{}));
  EXPECT_TRUE(report.by_class.empty());
  EXPECT_DOUBLE_EQ(report.total_cost, 0.0);
  EXPECT_EQ(report.find(http::ContentClass::kJson), nullptr);
}

TEST(AnalyzeCosts, RejectsNegativeModel) {
  CostModel model;
  model.cpu_per_request = -1.0;
  EXPECT_THROW((void)analyze_costs(logs::TableView(logs::LogTable{}), model),
               std::invalid_argument);
}

TEST(RenderCosts, ProducesTable) {
  logs::LogTable ds;
  ds.append(rec("application/json", 2048));
  const auto out = render_costs(analyze_costs(logs::TableView(ds)));
  EXPECT_NE(out.find("json"), std::string::npos);
  EXPECT_NE(out.find("cost/KB"), std::string::npos);
  EXPECT_NE(out.find("total cost"), std::string::npos);
}

TEST(ClassCost, ZeroBytesYieldsZeroPerKb) {
  ClassCost cost;
  EXPECT_DOUBLE_EQ(cost.cost_per_kilobyte(), 0.0);
  EXPECT_DOUBLE_EQ(cost.cpu_share(), 0.0);
}

}  // namespace
}  // namespace jsoncdn::core
