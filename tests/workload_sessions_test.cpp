#include "workload/sessions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace jsoncdn::workload {
namespace {

struct Fixture {
  Fixture() : catalog_config(), rng(1) {
    catalog_config.domains_per_industry = 1;
    catalog = std::make_unique<DomainCatalog>(catalog_config, stats::Rng(5));
    graph = std::make_unique<AppGraph>(catalog->domains().front(),
                                       catalog->mutable_objects(),
                                       AppGraphParams{}, stats::Rng(6));
  }
  CatalogConfig catalog_config;
  std::unique_ptr<DomainCatalog> catalog;
  std::unique_ptr<AppGraph> graph;
  stats::Rng rng;
};

TEST(AppSession, StartsAtManifest) {
  Fixture f;
  const auto events =
      generate_app_session(*f.graph, "10.0.0.1", "ua", 100.0, f.rng);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().time, 100.0);
  EXPECT_EQ(events.front().url,
            f.graph->urls_of(f.graph->manifest()).front());
  EXPECT_EQ(events.front().method, http::Method::kGet);
}

TEST(AppSession, TimesStrictlyAscendingAndClientFieldsSet) {
  Fixture f;
  const auto events =
      generate_app_session(*f.graph, "10.0.0.1", "myua", 0.0, f.rng);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].client_address, "10.0.0.1");
    EXPECT_EQ(events[i].user_agent, "myua");
    if (i > 0) EXPECT_GT(events[i].time, events[i - 1].time);
  }
}

TEST(AppSession, UploadsCarryBodies) {
  Fixture f;
  bool saw_upload = false;
  for (int s = 0; s < 50 && !saw_upload; ++s) {
    for (const auto& ev :
         generate_app_session(*f.graph, "a", "u", 0.0, f.rng)) {
      if (http::is_upload(ev.method)) {
        saw_upload = true;
        EXPECT_GT(ev.request_bytes, 0u);
      } else {
        EXPECT_EQ(ev.request_bytes, 0u);
      }
    }
  }
}

TEST(AppSession, GeometricLengthHasConfiguredMean) {
  Fixture f;
  double total = 0.0;
  // The session length's standard deviation is ~7.5 at a mean of 8, so the
  // band below is about three standard errors of the sample mean.
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    total += static_cast<double>(
        generate_app_session(*f.graph, "a", "u", 0.0, f.rng).size());
  }
  EXPECT_NEAR(total / n, AppSessionParams::mean_requests_per_session, 0.3);
}

TEST(BrowserSession, FetchesPageThenTemplateSubresources) {
  Fixture f;
  const auto& domain = f.catalog->domains().front();
  BrowserSessionParams params;
  params.json_xhr_prob = 1.0;
  const auto events = generate_browser_session(
      domain, f.catalog->objects(), "10.0.0.2", "bua", 0.0, params, f.rng);
  ASSERT_FALSE(events.empty());
  const auto* first = f.catalog->objects().find(events.front().url);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->content, http::ContentClass::kHtml);
  // All subsequent requests of the page belong to its template lists.
  bool saw_json = false;
  for (std::size_t i = 1; i < events.size(); ++i) {
    const auto* obj = f.catalog->objects().find(events[i].url);
    ASSERT_NE(obj, nullptr);
    if (obj->content == http::ContentClass::kJson) saw_json = true;
    if (obj->content == http::ContentClass::kHtml) break;  // next page
  }
  EXPECT_TRUE(saw_json);
}

TEST(BrowserSession, SamePageSameDependencies) {
  Fixture f;
  const auto& domain = f.catalog->domains().front();
  // Page dependency lists are template-fixed: two visits to page 0 fetch the
  // same assets.
  ASSERT_FALSE(domain.page_assets.empty());
  EXPECT_EQ(domain.page_assets[0], domain.page_assets[0]);
  for (const auto idx : domain.page_assets[0]) {
    EXPECT_LT(idx, f.catalog->objects().size());
  }
}

TEST(BrowserSession, EmptyDomainYieldsNoEvents) {
  Fixture f;
  DomainSpec empty;
  empty.name = "empty.example";
  const auto events = generate_browser_session(
      empty, f.catalog->objects(), "a", "u", 0.0, {}, f.rng);
  EXPECT_TRUE(events.empty());
}

TEST(PeriodicFlow, TicksAtConfiguredPeriod) {
  Fixture f;
  PeriodicFlowParams params;
  params.period_seconds = 30.0;
  params.jitter_stddev = 0.0;
  params.dropout_prob = 0.0;
  params.phase_offset = 3.0;
  const auto events = generate_periodic_flow(
      "https://h/x", http::Method::kGet, "a", "u", 0.0, 300.0, params, f.rng);
  ASSERT_EQ(events.size(), 10u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_NEAR(events[i].time, 3.0 + 30.0 * static_cast<double>(i), 1e-9);
  }
}

TEST(PeriodicFlow, DropoutRemovesTicks) {
  Fixture f;
  PeriodicFlowParams params;
  params.period_seconds = 10.0;
  params.dropout_prob = 0.5;
  params.jitter_stddev = 0.0;
  const auto events = generate_periodic_flow(
      "https://h/x", http::Method::kGet, "a", "u", 0.0, 10000.0, params,
      f.rng);
  EXPECT_LT(events.size(), 800u);
  EXPECT_GT(events.size(), 300u);
}

TEST(PeriodicFlow, JitteredEventsStayOrderedAndInWindow) {
  Fixture f;
  PeriodicFlowParams params;
  params.period_seconds = 5.0;
  params.jitter_stddev = 1.0;
  const auto events = generate_periodic_flow(
      "https://h/x", http::Method::kPost, "a", "u", 100.0, 400.0, params,
      f.rng);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_GE(events[i].time, 100.0);
    EXPECT_LT(events[i].time, 400.0);
    if (i > 0) EXPECT_LE(events[i - 1].time, events[i].time);
    EXPECT_GT(events[i].request_bytes, 0u);  // POST telemetry carries a body
  }
}

TEST(PeriodicFlow, RejectsBadParameters) {
  Fixture f;
  PeriodicFlowParams params;
  params.period_seconds = 0.0;
  EXPECT_THROW((void)generate_periodic_flow("u", http::Method::kGet, "a", "u",
                                            0.0, 10.0, params, f.rng),
               std::invalid_argument);
  params.period_seconds = 1.0;
  params.jitter_stddev = -1.0;
  EXPECT_THROW((void)generate_periodic_flow("u", http::Method::kGet, "a", "u",
                                            0.0, 10.0, params, f.rng),
               std::invalid_argument);
}

TEST(PoissonBeacon, EmitsPostsAtApproximateRate) {
  Fixture f;
  const auto events = generate_poisson_beacon("https://h/t", "a", "u", 0.0,
                                              10000.0, 0.1, f.rng);
  EXPECT_NEAR(static_cast<double>(events.size()), 1000.0, 120.0);
  for (const auto& ev : events) {
    EXPECT_EQ(ev.method, http::Method::kPost);
    EXPECT_GT(ev.request_bytes, 0u);
  }
}

}  // namespace
}  // namespace jsoncdn::workload
