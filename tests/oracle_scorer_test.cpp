#include "oracle/scorer.h"

#include <gtest/gtest.h>

#include "core/characterization.h"
#include "core/url_cluster.h"
#include "http/device_db.h"

namespace jsoncdn::oracle {
namespace {

core::ObjectPeriodicity object_with(
    const std::string& url,
    std::vector<core::ClientPeriodRecord> clients) {
  core::ObjectPeriodicity object;
  object.url = url;
  object.clients = std::move(clients);
  return object;
}

core::ClientPeriodRecord client_record(const std::string& client,
                                       bool periodic, double period) {
  core::ClientPeriodRecord record;
  record.client = client;
  record.periodic = periodic;
  record.period_seconds = period;
  return record;
}

TruthFlow truth_flow(const std::string& client, const std::string& url,
                     double period) {
  return TruthFlow{client, url, period, 100};
}

// --- score_periodicity -----------------------------------------------------

TEST(ScorePeriodicity, PerfectDetectionScoresPerfectly) {
  core::PeriodicityReport report;
  report.objects.push_back(object_with(
      "u1", {client_record("c1", true, 30.0), client_record("c2", false, 0)}));
  TruthSidecar truth;
  truth.periodic_flows = {truth_flow("c1", "u1", 30.0)};

  const auto score = score_periodicity(report, truth);
  EXPECT_EQ(score.true_positives, 1u);
  EXPECT_EQ(score.false_positives, 0u);
  EXPECT_EQ(score.false_negatives, 0u);
  EXPECT_EQ(score.eligible_truth, 1u);
  EXPECT_DOUBLE_EQ(score.precision(), 1.0);
  EXPECT_DOUBLE_EQ(score.recall(), 1.0);
  EXPECT_DOUBLE_EQ(score.f1(), 1.0);
  EXPECT_LT(score.max_period_rel_error(), 1e-12);
}

TEST(ScorePeriodicity, DetectionWithoutLabelIsFalsePositive) {
  core::PeriodicityReport report;
  report.objects.push_back(
      object_with("u1", {client_record("c1", true, 30.0)}));
  const TruthSidecar truth;  // no labelled flows

  const auto score = score_periodicity(report, truth);
  EXPECT_EQ(score.true_positives, 0u);
  EXPECT_EQ(score.false_positives, 1u);
  EXPECT_EQ(score.false_negatives, 0u);
  EXPECT_DOUBLE_EQ(score.precision(), 0.0);
}

TEST(ScorePeriodicity, LabeledAttackerDetectionIsNeitherTpNorFp) {
  // A rate-limited scraper genuinely emits periodic cadence; the truth
  // labels the client hostile but models no periodic flow for it. The
  // detection must not burn precision — it lands in hostile_detections.
  core::PeriodicityReport report;
  report.objects.push_back(object_with(
      "u1", {client_record("bot", true, 10.0), client_record("c1", true, 30.0)}));
  TruthSidecar truth;
  truth.periodic_flows = {truth_flow("c1", "u1", 30.0)};
  truth.attackers.push_back({"bot", "scraper", 400});

  const auto score = score_periodicity(report, truth);
  EXPECT_EQ(score.true_positives, 1u);
  EXPECT_EQ(score.false_positives, 0u);
  EXPECT_EQ(score.hostile_detections, 1u);
  EXPECT_DOUBLE_EQ(score.precision(), 1.0);
}

TEST(ScorePeriodicity, MissedEligibleLabelIsFalseNegative) {
  core::PeriodicityReport report;
  report.objects.push_back(
      object_with("u1", {client_record("c1", false, 0.0)}));
  TruthSidecar truth;
  truth.periodic_flows = {truth_flow("c1", "u1", 30.0)};

  const auto score = score_periodicity(report, truth);
  EXPECT_EQ(score.true_positives, 0u);
  EXPECT_EQ(score.false_negatives, 1u);
  EXPECT_DOUBLE_EQ(score.recall(), 0.0);
}

TEST(ScorePeriodicity, WrongPeriodCountsAsBothFalsePositiveAndNegative) {
  core::PeriodicityReport report;
  report.objects.push_back(
      object_with("u1", {client_record("c1", true, 300.0)}));
  TruthSidecar truth;
  truth.periodic_flows = {truth_flow("c1", "u1", 30.0)};

  const auto score = score_periodicity(report, truth);
  EXPECT_EQ(score.true_positives, 0u);
  EXPECT_EQ(score.false_positives, 1u);
  EXPECT_EQ(score.false_negatives, 1u);
}

TEST(ScorePeriodicity, PeriodWithinToleranceIsTruePositive) {
  core::PeriodicityReport report;
  report.objects.push_back(
      object_with("u1", {client_record("c1", true, 31.0)}));
  TruthSidecar truth;
  truth.periodic_flows = {truth_flow("c1", "u1", 30.0)};

  const auto score = score_periodicity(report, truth);
  EXPECT_EQ(score.true_positives, 1u);
  EXPECT_NEAR(score.max_period_rel_error(), 1.0 / 31.0, 1e-9);
}

TEST(ScorePeriodicity, FilteredTruthFlowDoesNotHurtRecall) {
  // Truth labels a flow the analysis never examined (eligibility filters
  // dropped it): recall is computed over eligible flows only, coverage
  // reports the filtered share.
  core::PeriodicityReport report;  // no analyzed flows at all
  TruthSidecar truth;
  truth.periodic_flows = {truth_flow("c1", "u1", 30.0)};

  const auto score = score_periodicity(report, truth);
  EXPECT_EQ(score.eligible_truth, 0u);
  EXPECT_EQ(score.false_negatives, 0u);
  EXPECT_DOUBLE_EQ(score.coverage(), 0.0);
  EXPECT_EQ(score.truth_flows, 1u);
}

TEST(ScorePeriodicity, DuplicateLabelsOnOneKeyMatchBestFirst) {
  // Two labelled flows collide on one (url, client) key; the single
  // detection recovers the closer period, the other label is a miss.
  core::PeriodicityReport report;
  report.objects.push_back(
      object_with("u1", {client_record("c1", true, 60.0)}));
  TruthSidecar truth;
  truth.periodic_flows = {truth_flow("c1", "u1", 61.0),
                          truth_flow("c1", "u1", 30.0)};

  const auto score = score_periodicity(report, truth);
  EXPECT_EQ(score.true_positives, 1u);
  EXPECT_EQ(score.false_negatives, 1u);
  EXPECT_NEAR(score.max_period_rel_error(), 1.0 / 61.0, 1e-9);
}

TEST(ScorePeriodicity, ExtraPeriodsGradeAgainstSeparateLabels) {
  // A multi-period detection (primary 60 s, extra 97 s) against two truth
  // flows on the same key: both components are independent true positives.
  core::PeriodicityReport report;
  auto rec = client_record("c1", true, 60.0);
  rec.extra_periods = {97.0};
  report.objects.push_back(object_with("u1", {rec}));
  TruthSidecar truth;
  truth.periodic_flows = {truth_flow("c1", "u1", 60.0),
                          truth_flow("c1", "u1", 97.0)};

  const auto score = score_periodicity(report, truth);
  EXPECT_EQ(score.true_positives, 2u);
  EXPECT_EQ(score.false_positives, 0u);
  EXPECT_EQ(score.false_negatives, 0u);
  EXPECT_DOUBLE_EQ(score.recall(), 1.0);
}

TEST(ScorePeriodicity, UnmatchedExtraPeriodIsFalsePositive) {
  core::PeriodicityReport report;
  auto rec = client_record("c1", true, 60.0);
  rec.extra_periods = {400.0};  // no second label anywhere near this
  report.objects.push_back(object_with("u1", {rec}));
  TruthSidecar truth;
  truth.periodic_flows = {truth_flow("c1", "u1", 60.0)};

  const auto score = score_periodicity(report, truth);
  EXPECT_EQ(score.true_positives, 1u);
  EXPECT_EQ(score.false_positives, 1u);
  EXPECT_EQ(score.false_negatives, 0u);
}

TEST(ScorePeriodicity, AttackerExtraPeriodsCountAsHostileDetections) {
  core::PeriodicityReport report;
  auto rec = client_record("bot", true, 10.0);
  rec.extra_periods = {25.0};
  report.objects.push_back(object_with("u1", {rec}));
  TruthSidecar truth;
  truth.attackers.push_back({"bot", "scraper", 400});

  const auto score = score_periodicity(report, truth);
  EXPECT_EQ(score.hostile_detections, 2u);  // primary + extra
  EXPECT_EQ(score.false_positives, 0u);
}

// The records as a LogTable, in the given order.
logs::LogTable table_of(const std::vector<logs::LogRecord>& records) {
  logs::LogTable table;
  for (const auto& record : records) table.append(record);
  return table;
}

// --- score_ngram -----------------------------------------------------------

logs::LogRecord json_record(double t, const std::string& client_id,
                            const std::string& ua, const std::string& url) {
  logs::LogRecord record;
  record.timestamp = t;
  record.client_id = client_id;
  record.user_agent = ua;
  record.url = url;
  record.domain = "a.example";
  record.content_type = "application/json";
  return record;
}

TEST(ScoreNgram, SkylineEqualsMeasuredWhenLogMatchesSessionsExactly) {
  // Build a log that replays each client's session chain verbatim; the
  // measured protocol and the skyline protocol then see identical token
  // sequences, so every accuracy figure must coincide.
  std::vector<logs::LogRecord> records;
  TruthSidecar truth;
  const std::vector<std::string> chain = {
      "https://a.example/app/v1/home", "https://a.example/app/v1/feed",
      "https://a.example/app/v1/item", "https://a.example/app/v1/home"};
  for (int c = 0; c < 12; ++c) {
    const std::string id = "client" + std::to_string(c);
    const std::string key = id + "|UA";
    double t = 10.0 * c;
    for (const auto& url : chain) {
      records.push_back(json_record(t, id, "UA", url));
      t += 1.0;
    }
    truth.sessions.push_back({key, chain});
  }
  auto table = table_of(records);
  const logs::TableView ds(table);
  table.sort_by_time();

  core::NgramEvalConfig config;
  config.threads = 1;
  const auto score = score_ngram(ds, truth, config);
  EXPECT_EQ(score.measured.predictions, score.skyline.predictions);
  EXPECT_EQ(score.measured.accuracy_at, score.skyline.accuracy_at);
  for (const auto& [k, delta] : score.delta()) {
    EXPECT_NEAR(delta, 0.0, 1e-12) << "k=" << k;
  }
}

TEST(ScoreNgram, ClusteredSkylinePrefersTruthTemplates) {
  // Two URLs with distinct ids share one truth template; the clustered
  // skyline must treat them as the same token and predict perfectly, even
  // though the raw URLs never repeat.
  std::vector<logs::LogRecord> records;
  TruthSidecar truth;
  for (int c = 0; c < 12; ++c) {
    const std::string id = "client" + std::to_string(c);
    const std::string key = id + "|UA";
    const std::vector<std::string> chain = {
        "https://a.example/app/v1/home",
        "https://a.example/article/" + std::to_string(1000 + c),
        "https://a.example/app/v1/home",
        "https://a.example/article/" + std::to_string(2000 + c)};
    double t = 10.0 * c;
    for (const auto& url : chain) {
      records.push_back(json_record(t, id, "UA", url));
      t += 1.0;
      truth.template_of_url.emplace(url, core::cluster_url(url));
    }
    truth.sessions.push_back({key, chain});
  }
  auto table = table_of(records);
  const logs::TableView ds(table);
  table.sort_by_time();

  core::NgramEvalConfig config;
  config.threads = 1;
  config.clustered = true;
  const auto score = score_ngram(ds, truth, config);
  ASSERT_GT(score.skyline.predictions, 0u);
  EXPECT_GT(score.skyline.accuracy_at.at(1), 0.9);
  EXPECT_EQ(score.measured.accuracy_at, score.skyline.accuracy_at);
}

TEST(ScoreNgram, DeltaSubtractsMeasuredFromSkyline) {
  NgramScore score;
  score.measured.accuracy_at = {{1, 0.4}, {5, 0.6}};
  score.skyline.accuracy_at = {{1, 0.5}, {5, 0.55}};
  const auto delta = score.delta();
  EXPECT_NEAR(delta.at(1), 0.1, 1e-12);
  EXPECT_NEAR(delta.at(5), -0.05, 1e-12);
}

// --- score_marginals -------------------------------------------------------

TEST(ScoreMarginals, ZeroDistanceWhenTruthAgreesWithClassifier) {
  // Clients whose UA the classifier maps to the same device the truth
  // declares, a class population exactly matching the configured shares,
  // and one domain per industry -> every L1 distance is zero.
  const std::string mobile_ua =
      "Mozilla/5.0 (iPhone; CPU iPhone OS 15_0 like Mac OS X) "
      "AppleWebKit/605.1.15 (KHTML, like Gecko) Version/15.0 Mobile/15E148 "
      "Safari/604.1";
  std::vector<logs::LogRecord> records;
  TruthSidecar truth;
  for (int c = 0; c < 4; ++c) {
    const std::string id = "m" + std::to_string(c);
    auto record = json_record(static_cast<double>(c), id, mobile_ua,
                              "https://api.fin-001.example/v1/poll");
    record.domain = "api.fin-001.example";
    records.push_back(record);
    truth.clients.push_back({id + "|" + mobile_ua, "mobile-app",
                             std::string(http::to_string(
                                 http::DeviceType::kMobile)),
                             "native-app", false});
  }
  truth.population_shares = {{"mobile-app", 1.0}};
  truth.industry_of_domain = {{"api.fin-001.example", "Financial Services"}};

  auto table = table_of(records);
  const logs::TableView ds(table);
  table.sort_by_time();
  const auto source = core::characterize_source(ds, 1);

  const auto score = score_marginals(ds, source, truth);
  EXPECT_EQ(score.joined_requests, 4u);
  EXPECT_EQ(score.unmatched_requests, 0u);
  EXPECT_NEAR(score.device_request_l1, 0.0, 1e-12);
  EXPECT_NEAR(score.class_population_l1, 0.0, 1e-12);
  EXPECT_NEAR(score.industry_domain_l1, 0.0, 1e-12);
}

TEST(ScoreMarginals, CountsRecordsWithoutTruthRowAsUnmatched) {
  std::vector<logs::LogRecord> records;
  records.push_back(
      json_record(0.0, "stranger", "UA", "https://a.example/x"));
  auto table = table_of(records);
  const logs::TableView ds(table);
  const auto source = core::characterize_source(ds, 1);

  const auto score = score_marginals(ds, source, TruthSidecar{});
  EXPECT_EQ(score.joined_requests, 0u);
  EXPECT_EQ(score.unmatched_requests, 1u);
}

TEST(ScoreMarginals, HostileRecordsAreExcludedFromTheDeviceMarginal) {
  // Benign clients agree with truth exactly; a labeled bot whose UA
  // classifies nothing like the benign mix floods the log. With the
  // attacker row present the device marginal must ignore its records on
  // both sides and stay at zero, counting them as hostile instead.
  const std::string mobile_ua =
      "Mozilla/5.0 (iPhone; CPU iPhone OS 15_0 like Mac OS X) "
      "AppleWebKit/605.1.15 (KHTML, like Gecko) Version/15.0 Mobile/15E148 "
      "Safari/604.1";
  const std::string bot_ua = "python-requests/2.31.0";
  std::vector<logs::LogRecord> records;
  TruthSidecar truth;
  for (int c = 0; c < 4; ++c) {
    const std::string id = "m" + std::to_string(c);
    records.push_back(json_record(static_cast<double>(c), id, mobile_ua,
                                  "https://a.example/v1/poll"));
    truth.clients.push_back({id + "|" + mobile_ua, "mobile-app",
                             std::string(http::to_string(
                                 http::DeviceType::kMobile)),
                             "native-app", false});
  }
  for (int r = 0; r < 12; ++r) {
    records.push_back(json_record(10.0 + r, "bot", bot_ua,
                                  "https://a.example/page/" +
                                      std::to_string(r)));
  }
  truth.attackers.push_back({"bot|" + bot_ua, "scraper", 12});
  truth.population_shares = {{"mobile-app", 1.0}};

  auto table = table_of(records);
  const logs::TableView ds(table);
  table.sort_by_time();
  const auto source = core::characterize_source(ds, 1);
  // Sanity: the whole-log device mix really is skewed by the bot.
  EXPECT_LT(source.device_share(http::DeviceType::kMobile), 0.5);

  const auto score = score_marginals(ds, source, truth);
  EXPECT_EQ(score.joined_requests, 4u);
  EXPECT_EQ(score.unmatched_requests, 0u);
  EXPECT_EQ(score.hostile_requests, 12u);
  EXPECT_NEAR(score.device_request_l1, 0.0, 1e-12);
}

TEST(ScoreMarginals, DeviceMismatchShowsUpAsDistance) {
  // Truth says embedded; the empty UA classifies as unknown. The device
  // marginal must move by 2 (one full unit of share leaves embedded, one
  // arrives at unknown).
  std::vector<logs::LogRecord> records;
  records.push_back(json_record(0.0, "c0", "", "https://a.example/x"));
  TruthSidecar truth;
  truth.clients.push_back({"c0|", "embedded",
                           std::string(http::to_string(
                               http::DeviceType::kEmbedded)),
                           "unknown", false});
  auto table = table_of(records);
  const logs::TableView ds(table);
  const auto source = core::characterize_source(ds, 1);

  const auto score = score_marginals(ds, source, truth);
  EXPECT_EQ(score.joined_requests, 1u);
  EXPECT_NEAR(score.device_request_l1, 2.0, 1e-12);
}

}  // namespace
}  // namespace jsoncdn::oracle
