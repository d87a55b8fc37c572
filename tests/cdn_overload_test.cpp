// Overload protection: the admission-control layer in front of the edge —
// capacity model, per-client token buckets, bounded admission queue, and
// CoDel-style shedding. Everything is a pure function of the arrival
// sequence, so the tests drive exact scenarios and assert exact outcomes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cdn/edge.h"
#include "cdn/origin.h"
#include "cdn/overload.h"
#include "logs/anonymizer.h"
#include "workload/catalog.h"
#include "workload/sessions.h"

namespace jsoncdn::cdn {
namespace {

constexpr char kBrowserUa[] =
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/118.0.0.0 Safari/537.36";
constexpr char kBotUa[] = "python-requests/2.31.0";

// ---- machine_class --------------------------------------------------------

TEST(MachineClassTest, BrowsersAndAppsAreHuman) {
  EXPECT_FALSE(machine_class(kBrowserUa));
  EXPECT_TRUE(machine_class(kBotUa));
  EXPECT_TRUE(machine_class("curl/8.1.2"));
  EXPECT_TRUE(machine_class(""));          // missing UA: machine-to-machine
  EXPECT_TRUE(machine_class("x!!weird"));  // garbage UA: machine-to-machine
}

// ---- OverloadController, driven directly ----------------------------------

TEST(OverloadControllerTest, DisabledControllerAlwaysAdmitsStateless) {
  OverloadParams params;  // model_capacity == false
  OverloadController controller(params);
  for (int i = 0; i < 100; ++i) {
    const auto d = controller.admit("c", /*machine=*/true, 0.0);
    EXPECT_TRUE(d.admitted());
    EXPECT_DOUBLE_EQ(d.queue_wait, 0.0);
    controller.complete(0.0, 10.0);
  }
  EXPECT_DOUBLE_EQ(controller.queue_delay(0.0), 0.0);
  EXPECT_EQ(controller.queued(0.0), 0u);
}

TEST(OverloadControllerTest, CapacityModelChargesQueueWait) {
  OverloadParams params;
  params.model_capacity = true;
  params.concurrency = 2;
  params.service_floor_seconds = 1.0;
  OverloadController controller(params);

  // Two requests fill both workers until t=1; the third waits for the
  // earliest-free worker.
  for (int i = 0; i < 2; ++i) {
    const auto d = controller.admit("c", false, 0.0);
    ASSERT_TRUE(d.admitted());
    EXPECT_DOUBLE_EQ(d.queue_wait, 0.0);
    controller.complete(0.0, 0.0);  // floored to 1.0
  }
  const auto third = controller.admit("c", false, 0.0);
  ASSERT_TRUE(third.admitted());
  EXPECT_DOUBLE_EQ(third.queue_wait, 1.0);
  controller.complete(0.0, 0.0);  // starts at t=1, frees at t=2

  // After every worker has drained, a late arrival waits for nothing.
  const auto later = controller.admit("c", false, 5.0);
  ASSERT_TRUE(later.admitted());
  EXPECT_DOUBLE_EQ(later.queue_wait, 0.0);
}

TEST(OverloadControllerTest, ServiceTimeIsFloored) {
  OverloadParams params;
  params.model_capacity = true;
  params.concurrency = 1;
  params.service_floor_seconds = 0.5;
  OverloadController controller(params);

  ASSERT_TRUE(controller.admit("c", false, 0.0).admitted());
  controller.complete(0.0, 0.001);  // floored: worker busy until 0.5
  EXPECT_DOUBLE_EQ(controller.admit("c", false, 0.0).queue_wait, 0.5);
  controller.complete(0.0, 2.0);  // above the floor: kept as-is

  // Second worker slot starts when the first frees (0.5) + 2.0 => 2.5.
  EXPECT_DOUBLE_EQ(controller.queue_delay(0.6), 2.5 - 0.6);
}

TEST(OverloadControllerTest, TokenBucketThrottlesPerClient) {
  OverloadParams params;
  params.model_capacity = true;
  params.bucket_rate = 1.0;
  params.bucket_burst = 3.0;
  OverloadController controller(params);

  // The burst admits 3 back-to-back requests; the 4th is throttled.
  for (int i = 0; i < 3; ++i) {
    const auto d = controller.admit("bot", true, 0.0);
    EXPECT_TRUE(d.admitted()) << "request " << i;
    controller.complete(0.0, 0.0);
  }
  EXPECT_EQ(controller.admit("bot", true, 0.0).outcome,
            AdmitOutcome::kThrottled);

  // Buckets are per-client: an unrelated client is untouched.
  EXPECT_TRUE(controller.admit("human", false, 0.0).admitted());
  controller.complete(0.0, 0.0);

  // One second refills one token.
  EXPECT_TRUE(controller.admit("bot", true, 1.0).admitted());
  controller.complete(1.0, 0.0);
  EXPECT_EQ(controller.admit("bot", true, 1.0).outcome,
            AdmitOutcome::kThrottled);
}

TEST(OverloadControllerTest, BoundedQueueShedsOverflow) {
  OverloadParams params;
  params.model_capacity = true;
  params.concurrency = 1;
  params.service_floor_seconds = 100.0;  // nothing drains during the test
  params.queue_limit = 2;
  OverloadController controller(params);

  // First request occupies the worker; the next two queue behind it.
  for (int i = 0; i < 3; ++i) {
    const auto d = controller.admit("c", false, 0.0);
    ASSERT_TRUE(d.admitted()) << "request " << i;
    controller.complete(0.0, 0.0);
  }
  EXPECT_EQ(controller.queued(0.0), 2u);
  EXPECT_EQ(controller.admit("c", false, 0.0).outcome,
            AdmitOutcome::kShedQueueFull);
}

TEST(OverloadControllerTest, CodelShedsMachineBeforeHuman) {
  OverloadParams params;
  params.model_capacity = true;
  params.concurrency = 1;
  params.service_floor_seconds = 10.0;
  params.codel_target_seconds = 1.0;
  OverloadController controller(params);

  // Build a backlog: worker busy until t=10, then 10 more queued requests
  // push the queue delay far above target * multiplier.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(controller.admit("c", false, 0.0).admitted());
    controller.complete(0.0, 0.0);
  }
  // Delay (30 - t) is above target, but not yet sustained for a full
  // interval: both classes still ride through.
  EXPECT_TRUE(controller.admit("c", true, 0.01).admitted());
  controller.complete(0.01, 0.0);

  // Past the interval the machine class sheds...
  EXPECT_EQ(controller.admit("c", true, 0.6).outcome,
            AdmitOutcome::kShedOverload);
  // ...and with the delay far past target * multiplier, humans shed too.
  EXPECT_EQ(controller.admit("c", false, 0.6).outcome,
            AdmitOutcome::kShedOverload);
}

TEST(OverloadControllerTest, CodelSparesHumansBelowMultiplier) {
  OverloadParams params;
  params.model_capacity = true;
  params.concurrency = 1;
  params.service_floor_seconds = 2.0;
  params.codel_target_seconds = 1.0;
  OverloadController controller(params);

  // One busy worker: delay = 2.0 - now, above target but below 4x target.
  ASSERT_TRUE(controller.admit("c", false, 0.0).admitted());
  controller.complete(0.0, 0.0);
  ASSERT_GT(controller.queue_delay(0.6), params.codel_target_seconds);

  // An early probe starts the above-target clock without taking a worker.
  ASSERT_TRUE(controller.admit("c", true, 0.05).admitted());

  // Sustained above target: machine sheds, human is admitted (and pays the
  // queue wait instead).
  EXPECT_EQ(controller.admit("c", true, 0.6).outcome,
            AdmitOutcome::kShedOverload);
  const auto human = controller.admit("c", false, 0.6);
  EXPECT_TRUE(human.admitted());
  EXPECT_NEAR(human.queue_wait, 1.4, 1e-9);
}

TEST(OverloadControllerTest, IdenticalSequencesReplayIdentically) {
  const auto run = [] {
    OverloadParams params = OverloadParams::protected_defaults();
    params.concurrency = 2;
    params.service_floor_seconds = 0.1;
    OverloadController controller(params);
    std::vector<int> outcomes;
    std::vector<double> waits;
    for (int i = 0; i < 500; ++i) {
      const double now = 0.01 * i;
      const std::string client = "c" + std::to_string(i % 7);
      const auto d = controller.admit(client, i % 3 != 0, now);
      outcomes.push_back(static_cast<int>(d.outcome));
      waits.push_back(d.queue_wait);
      if (d.admitted()) controller.complete(now, 0.05);
    }
    return std::make_pair(outcomes, waits);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---- EdgeServer integration -----------------------------------------------

class OverloadEdgeFixture : public ::testing::Test {
 protected:
  void make_edge(const EdgeParams& params = {}) {
    workload::ObjectSpec obj;
    obj.url = "https://d/x";
    obj.domain = "d";
    obj.content_type = "application/json";
    obj.cacheable = true;
    obj.ttl_seconds = 3600.0;
    obj.body_bytes = 1000;
    catalog_.add(obj);
    origin_ = std::make_unique<Origin>(catalog_);
    anonymizer_ = std::make_unique<logs::Anonymizer>(9);
    edge_ = std::make_unique<EdgeServer>(0, *origin_, *anonymizer_, params);
  }

  static workload::RequestEvent request(double t, const char* address,
                                        const char* ua) {
    workload::RequestEvent ev;
    ev.time = t;
    ev.client_address = address;
    ev.user_agent = ua;
    ev.url = "https://d/x";
    return ev;
  }

  workload::ObjectCatalog catalog_;
  std::unique_ptr<Origin> origin_;
  std::unique_ptr<logs::Anonymizer> anonymizer_;
  std::unique_ptr<EdgeServer> edge_;
};

TEST_F(OverloadEdgeFixture, DisabledOverloadLeavesEdgeUnchanged) {
  make_edge();  // defaults: model_capacity == false
  for (int i = 0; i < 10; ++i) {
    (void)edge_->handle(request(0.1 * i, "10.0.0.1", kBotUa));
  }
  EXPECT_FALSE(edge_->two_class().any());
  EXPECT_EQ(edge_->resilience().rejected(), 0u);
  EXPECT_DOUBLE_EQ(edge_->resilience().queue_wait_seconds, 0.0);
  EXPECT_EQ(edge_->metrics().rejected(), 0u);
}

TEST_F(OverloadEdgeFixture, ThrottledRequestsLogged429) {
  EdgeParams params;
  params.overload.model_capacity = true;
  params.overload.bucket_rate = 1.0;
  params.overload.bucket_burst = 2.0;
  make_edge(params);

  // Burst of 4 from one bot at t=0: 2 admitted, 2 throttled.
  std::vector<logs::LogRecord> records;
  for (int i = 0; i < 4; ++i) {
    records.push_back(edge_->handle(request(0.0, "203.0.0.1", kBotUa)));
  }
  EXPECT_EQ(records[0].status, 200);
  EXPECT_EQ(records[2].status, 429);
  EXPECT_EQ(records[2].cache_status, logs::CacheStatus::kThrottled);
  EXPECT_EQ(records[2].response_bytes, 0u);
  // The rejection record keeps the origin's identity so per-domain analyses
  // still see the hostile traffic.
  EXPECT_EQ(records[2].domain, "d");

  const auto& r = edge_->resilience();
  EXPECT_EQ(r.throttled, 2u);
  EXPECT_EQ(edge_->metrics().rejected(), 2u);
  EXPECT_EQ(edge_->metrics().requests(), 4u);
  // Rejections carry no latency sample.
  EXPECT_EQ(edge_->metrics().latencies().size(), 2u);

  const auto& machine = edge_->two_class().machine;
  EXPECT_EQ(machine.requests, 4u);
  EXPECT_EQ(machine.served, 2u);
  EXPECT_EQ(machine.throttled, 2u);
  EXPECT_EQ(machine.latencies.size(), 2u);
}

TEST_F(OverloadEdgeFixture, QueueOverflowLogged503Shed) {
  EdgeParams params;
  params.overload.model_capacity = true;
  params.overload.concurrency = 1;
  params.overload.service_floor_seconds = 50.0;
  params.overload.queue_limit = 1;
  make_edge(params);

  (void)edge_->handle(request(0.0, "10.0.0.1", kBrowserUa));  // worker busy
  (void)edge_->handle(request(0.0, "10.0.0.2", kBrowserUa));  // queued
  const auto shed = edge_->handle(request(0.0, "10.0.0.3", kBrowserUa));
  EXPECT_EQ(shed.status, 503);
  EXPECT_EQ(shed.cache_status, logs::CacheStatus::kShed);
  EXPECT_EQ(edge_->resilience().shed_queue_full, 1u);
  EXPECT_EQ(edge_->two_class().human.shed, 1u);
  // The queued request's wait surfaced in both the latency sample and the
  // aggregate counter.
  EXPECT_GT(edge_->resilience().queue_wait_seconds, 0.0);
}

TEST_F(OverloadEdgeFixture, QueueWaitRaisesServedLatency) {
  EdgeParams params;
  params.overload.model_capacity = true;
  params.overload.concurrency = 1;
  params.overload.service_floor_seconds = 2.0;
  make_edge(params);
  // Control: the identical sequence through an edge with no capacity model.
  EdgeServer control(1, *origin_, *anonymizer_, EdgeParams{});

  for (const auto* address : {"10.0.0.1", "10.0.0.2"}) {
    (void)edge_->handle(request(0.0, address, kBrowserUa));
    (void)control.handle(request(0.0, address, kBrowserUa));
  }
  const auto& with = edge_->metrics().latencies();
  const auto& without = control.metrics().latencies();
  ASSERT_EQ(with.size(), 2u);
  ASSERT_EQ(without.size(), 2u);
  // First request sees an idle worker: no wait. The second waited the full
  // 2 s service floor; everything else about the serve path is identical.
  EXPECT_DOUBLE_EQ(with[0], without[0]);
  EXPECT_NEAR(with[1] - without[1], 2.0, 1e-9);
}

TEST_F(OverloadEdgeFixture, ProtectedEdgeReplaysBitIdentically) {
  EdgeParams params;
  params.overload = OverloadParams::protected_defaults();
  params.overload.concurrency = 1;
  params.overload.service_floor_seconds = 0.5;

  const auto run = [&] {
    workload::ObjectCatalog catalog;
    workload::ObjectSpec obj;
    obj.url = "https://d/x";
    obj.domain = "d";
    obj.content_type = "application/json";
    obj.cacheable = true;
    obj.ttl_seconds = 3600.0;
    obj.body_bytes = 1000;
    catalog.add(obj);
    Origin origin(catalog);
    logs::Anonymizer anonymizer(9);
    EdgeServer edge(0, origin, anonymizer, params);
    std::vector<std::pair<int, logs::CacheStatus>> out;
    for (int i = 0; i < 300; ++i) {
      const auto record = edge.handle(request(
          0.02 * i, i % 2 == 0 ? "203.0.0.1" : "10.0.0.1",
          i % 2 == 0 ? kBotUa : kBrowserUa));
      out.emplace_back(record.status, record.cache_status);
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST_F(OverloadEdgeFixture, UnprotectedArmQueuesButNeverRejects) {
  EdgeParams params;
  params.overload = OverloadParams::unprotected_defaults();
  params.overload.concurrency = 1;
  params.overload.service_floor_seconds = 1.0;
  make_edge(params);

  for (int i = 0; i < 50; ++i) {
    const auto record = edge_->handle(request(0.0, "10.0.0.1", kBrowserUa));
    EXPECT_EQ(record.status, 200);
  }
  EXPECT_EQ(edge_->resilience().rejected(), 0u);
  // The backlog grows without bound: the last request waited ~49 service
  // times for a worker.
  const auto& latencies = edge_->metrics().latencies();
  EXPECT_GT(latencies.back(), 48.0);
}

}  // namespace
}  // namespace jsoncdn::cdn
