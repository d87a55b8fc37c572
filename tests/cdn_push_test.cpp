// HTTP Server Push simulation (§5.2's second delivery mechanism).
#include <gtest/gtest.h>

#include <string>

#include "cdn/edge.h"
#include "cdn/origin.h"

namespace jsoncdn::cdn {
namespace {

class PushFixture : public ::testing::Test {
 protected:
  PushFixture() : origin_(catalog_), anonymizer_(5) {}

  void SetUp() override {
    workload::ObjectSpec a;
    a.url = "https://d/a";
    a.domain = "d";
    a.content_type = "application/json";
    a.cacheable = true;
    a.ttl_seconds = 600.0;
    a.body_bytes = 1000;
    catalog_.add(a);
    workload::ObjectSpec b = a;
    b.url = "https://d/b";
    catalog_.add(b);

    EdgeParams params;
    params.enable_push = true;
    edge_ = std::make_unique<EdgeServer>(0, origin_, anonymizer_, params);
  }

  static workload::RequestEvent request(const std::string& client,
                                        const std::string& url, double t) {
    workload::RequestEvent ev;
    ev.time = t;
    ev.client_address = client;
    ev.user_agent = "ua";
    ev.url = url;
    return ev;
  }

  workload::ObjectCatalog catalog_;
  Origin origin_;
  logs::Anonymizer anonymizer_;
  std::unique_ptr<EdgeServer> edge_;
};

// Policy that always predicts /b after anything.
class PredictB final : public PrefetchPolicy {
 public:
  std::vector<std::string> candidates(const logs::LogRecord&) override {
    return {"https://d/b"};
  }
};

TEST_F(PushFixture, PushedResponseAnswersNextRequestLocally) {
  PredictB policy;
  (void)edge_->handle(request("c1", "https://d/a", 0.0), &policy);
  EXPECT_EQ(edge_->metrics().pushes_sent(), 1u);

  const auto r = edge_->handle(request("c1", "https://d/b", 5.0));
  EXPECT_EQ(r.cache_status, logs::CacheStatus::kHit);
  EXPECT_EQ(edge_->metrics().pushes_used(), 1u);
  // The pushed answer is near-instant, far below even an edge hit.
  EXPECT_LT(edge_->metrics().latencies().back(), 0.002);
}

TEST_F(PushFixture, PushExpiresAfterValidityWindow) {
  PredictB policy;
  (void)edge_->handle(request("c1", "https://d/a", 0.0), &policy);
  const auto r = edge_->handle(request("c1", "https://d/b", 31.0));
  // Still a cache hit (prefetch warmed the edge), but not a push hit.
  EXPECT_EQ(r.cache_status, logs::CacheStatus::kHit);
  EXPECT_EQ(edge_->metrics().pushes_used(), 0u);
  EXPECT_GT(edge_->metrics().latencies().back(), 0.002);
}

TEST_F(PushFixture, PushIsPerClient) {
  PredictB policy;
  (void)edge_->handle(request("c1", "https://d/a", 0.0), &policy);
  // A different client did not receive the push.
  (void)edge_->handle(request("c2", "https://d/b", 1.0));
  EXPECT_EQ(edge_->metrics().pushes_used(), 0u);
}

TEST_F(PushFixture, PushConsumedOnlyOnce) {
  PredictB policy;
  (void)edge_->handle(request("c1", "https://d/a", 0.0), &policy);
  (void)edge_->handle(request("c1", "https://d/b", 1.0));
  (void)edge_->handle(request("c1", "https://d/b", 2.0));
  EXPECT_EQ(edge_->metrics().pushes_used(), 1u);
}

TEST_F(PushFixture, WasteAccounting) {
  PredictB policy;
  (void)edge_->handle(request("c1", "https://d/a", 0.0), &policy);
  (void)edge_->handle(request("c2", "https://d/a", 1.0), &policy);
  // Only c1 consumes its push.
  (void)edge_->handle(request("c1", "https://d/b", 2.0));
  EXPECT_EQ(edge_->metrics().pushes_sent(), 2u);
  EXPECT_EQ(edge_->metrics().pushes_used(), 1u);
  EXPECT_DOUBLE_EQ(edge_->metrics().push_waste(), 0.5);
  EXPECT_GT(edge_->metrics().push_bytes(), 0u);
}

// ---- Push-table sweep (memory hygiene) ------------------------------------

TEST_F(PushFixture, SizeTriggeredSweepDropsOnlyExpiredEntries) {
  EdgeParams params;
  params.enable_push = true;
  EdgeServer edge(0, origin_, anonymizer_, params);
  PredictB policy;
  const std::size_t bound = EdgeParams::push_table_sweep_entries;
  // Every push lands well inside the sweep period, so only the size trigger
  // can fire.
  static_assert(EdgeParams::push_table_sweep_seconds > 40.0);

  // c0's push expires at t=30; the pushes that fill the table to its bound
  // come later and are still fresh.
  (void)edge.handle(request("c0", "https://d/a", 0.0), &policy);
  for (std::size_t c = 1; c < bound; ++c) {
    (void)edge.handle(request("c" + std::to_string(c), "https://d/a", 40.0),
                      &policy);
  }
  EXPECT_EQ(edge.push_table_size(), bound);
  (void)edge.handle(request("c-last", "https://d/a", 40.0), &policy);
  // The sweep fired (bound + 1 > bound) and dropped only c0's expired entry.
  EXPECT_EQ(edge.push_table_size(), bound);

  // The surviving fresh entries still answer locally: sweeping is invisible
  // to served traffic.
  (void)edge.handle(request("c1", "https://d/b", 41.0));
  (void)edge.handle(request("c-last", "https://d/b", 42.0));
  EXPECT_EQ(edge.metrics().pushes_used(), 2u);
}

TEST_F(PushFixture, TimeTriggeredSweepBoundsIdleTable) {
  EdgeParams params;
  params.enable_push = true;
  EdgeServer edge(0, origin_, anonymizer_, params);
  PredictB policy;

  (void)edge.handle(request("c1", "https://d/a", 0.0), &policy);
  EXPECT_EQ(edge.push_table_size(), 1u);
  // c1 never returns; its entry expires at t=30. A later request from
  // another client crosses the sweep period and collects it (the table
  // never nears the size trigger).
  (void)edge.handle(request("c2", "https://d/a",
                            EdgeParams::push_table_sweep_seconds + 10.0),
                    &policy);
  EXPECT_EQ(edge.push_table_size(), 1u);  // only c2's fresh push remains
}

TEST_F(PushFixture, DisabledPushNeverPushes) {
  EdgeParams params;  // enable_push defaults to false
  EdgeServer plain(1, origin_, anonymizer_, params);
  PredictB policy;
  (void)plain.handle(request("c1", "https://d/a", 0.0), &policy);
  EXPECT_EQ(plain.metrics().pushes_sent(), 0u);
  EXPECT_GT(plain.metrics().prefetches_issued(), 0u);  // prefetch still works
}

}  // namespace
}  // namespace jsoncdn::cdn
