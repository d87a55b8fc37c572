// The oracle conformance harness, exercised the way CI gates on it: a seed
// sweep against the paper-band invariants with thread and streaming
// differentials, plus the metamorphic relations the pipeline's determinism
// contracts make *exact* — disjoint interleaving, benign noise, and
// order-preserving URL renaming do not change labels or accuracies at all,
// so those comparisons are equality, not tolerance. Time shift is the one
// relation that cannot be bit-exact: (t + d) - (t0 + d) differs from t - t0
// by up to one rounding of the shifted doubles, so its labels must match
// exactly but detected periods get a 1e-6 relative allowance.
#include "oracle/conformance.h"

#include <gtest/gtest.h>

#include "core/ngram.h"
#include "core/periodicity.h"
#include "oracle/metamorphic.h"

namespace jsoncdn::oracle {
namespace {

// One small generated workload shared by the metamorphic tests (generation
// and detection are the expensive parts; the relations all hold on the same
// case).
const GeneratedCase& small_case() {
  static const GeneratedCase instance = [] {
    ConformanceConfig config;
    config.scale = 0.001;
    config.n_clients = 400;
    config.duration_seconds = 3600.0;
    return generate_case(11, config);
  }();
  return instance;
}

core::PeriodicityConfig threads1() {
  core::PeriodicityConfig config;
  config.threads = 1;
  return config;
}

// --- the sweep -------------------------------------------------------------

TEST(OracleConformance, SeedSweepStaysWithinPaperBands) {
  ConformanceConfig config;
  config.seeds = {1, 7};
  const auto report = run_conformance(config);
  ASSERT_EQ(report.cases.size(), 2u);
  for (const auto& result : report.cases) {
    EXPECT_TRUE(result.passed()) << render_case(result);
    EXPECT_TRUE(result.thread_invariant);
    EXPECT_TRUE(result.streaming_consistent);
    // The detector must be near-perfect on the clean workload, not merely
    // above the floor.
    EXPECT_GE(result.detector.f1(), 0.9) << render_case(result);
    EXPECT_GT(result.detector.true_positives, 10u);
    // Clustering must help the predictor, as in Table 3.
    EXPECT_GT(result.ngram_clustered.measured.accuracy_at.at(1),
              result.ngram_raw.measured.accuracy_at.at(1));
    // Every log record joined against a truth client.
    EXPECT_EQ(result.marginals.unmatched_requests, 0u);
  }
  EXPECT_TRUE(report.all_passed());
  EXPECT_EQ(report.total_failures(), 0u);
}

TEST(OracleConformance, RenderingsNameEverySeed) {
  ConformanceReport report;
  CaseResult result;
  result.seed = 42;
  result.failures.push_back("detector F1 0.1 < 0.9");
  report.cases.push_back(result);
  const auto text = render_conformance(report);
  EXPECT_NE(text.find("seed 42"), std::string::npos);
  EXPECT_NE(text.find("[FAIL]"), std::string::npos);
  EXPECT_NE(text.find("detector F1 0.1 < 0.9"), std::string::npos);
  const auto table = render_detector_table(report);
  EXPECT_NE(table.find("| 42 |"), std::string::npos);
}

// --- metamorphic relations -------------------------------------------------

TEST(OracleMetamorphic, TimeShiftNeverFlipsDetectionLabels) {
  const auto& original = small_case();
  const auto base = detection_labels(
      core::analyze_periodicity(original.json(), threads1()));
  ASSERT_FALSE(base.empty());

  // A large non-representable shift stresses the worst case: every shifted
  // timestamp re-rounds, so inter-arrival gaps move at the ulp level. Flow
  // coverage and periodic flags must be untouched; periods may re-round.
  const auto shifted = shift_time(original.json(), 86400.5);
  const auto moved = detection_labels(
      core::analyze_periodicity(logs::TableView(shifted), threads1()));
  ASSERT_EQ(base.size(), moved.size());
  EXPECT_TRUE(labels_equivalent(base, moved, 1e-6));
}

TEST(OracleMetamorphic, InterleavingDisjointTrafficPreservesLabels) {
  const auto& original = small_case();
  const auto base = detection_labels(
      core::analyze_periodicity(original.json(), threads1()));

  const auto twin = rename_disjoint(original.json(), "twin");
  const auto merged = merge_datasets(original.json(), logs::TableView(twin));
  ASSERT_EQ(merged.size(), 2 * original.json_rows.size());
  const auto labels = detection_labels(
      core::analyze_periodicity(logs::TableView(merged), threads1()));
  EXPECT_EQ(restrict_labels(labels, base), base);
}

TEST(OracleMetamorphic, BenignNoiseDoesNotFlipLabels) {
  const auto& original = small_case();
  const auto base = detection_labels(
      core::analyze_periodicity(original.json(), threads1()));

  const auto noisy = inject_benign_noise(original.json(), 500, 99);
  ASSERT_EQ(noisy.size(), original.json_rows.size() + 500);
  const auto labels = detection_labels(
      core::analyze_periodicity(logs::TableView(noisy), threads1()));
  EXPECT_EQ(restrict_labels(labels, base), base);
}

TEST(OracleMetamorphic, OrderPreservingRenameKeepsNgramAccuracy) {
  const auto& original = small_case();
  const auto renamed = rename_urls_order_preserving(original.json(), "zz9.");

  for (const bool clustered : {false, true}) {
    core::NgramEvalConfig config;
    config.threads = 1;
    config.clustered = clustered;
    const auto before = core::evaluate_ngram(original.json(), config);
    const auto after = core::evaluate_ngram(logs::TableView(renamed), config);
    EXPECT_EQ(before.accuracy_at, after.accuracy_at)
        << "clustered=" << clustered;
    EXPECT_EQ(before.predictions, after.predictions);
    EXPECT_EQ(before.train_clients, after.train_clients);
  }
}

TEST(OracleMetamorphic, ThreadCountIsInvisibleInLabelsAndAccuracy) {
  const auto& original = small_case();
  auto config4 = threads1();
  config4.threads = 4;
  EXPECT_EQ(
      detection_labels(core::analyze_periodicity(original.json(), threads1())),
      detection_labels(core::analyze_periodicity(original.json(), config4)));

  core::NgramEvalConfig n1;
  n1.threads = 1;
  auto n4 = n1;
  n4.threads = 4;
  EXPECT_EQ(core::evaluate_ngram(original.json(), n1).accuracy_at,
            core::evaluate_ngram(original.json(), n4).accuracy_at);
}

// --- transform unit behaviour ---------------------------------------------

TEST(OracleMetamorphic, RenameDisjointTouchesEveryIdentity) {
  const auto& original = small_case();
  const auto json = original.json();
  const auto renamed = rename_disjoint(json, "twin");
  ASSERT_EQ(renamed.size(), json.size());
  const auto& table = original.table;
  for (std::uint32_t i = 0; i < renamed.size(); ++i) {
    EXPECT_NE(renamed.client_id(i), table.client_id(json[i]));
    EXPECT_NE(renamed.url(i), table.url(json[i]));
    EXPECT_NE(renamed.domain(i), table.domain(json[i]));
    EXPECT_EQ(renamed.timestamp(i), table.timestamp(json[i]));
  }
}

TEST(OracleMetamorphic, RenameRejectsUrlsWithoutScheme) {
  logs::LogRecord record;
  record.url = "ftp://a.example/x";
  logs::LogTable table;
  table.append(record);
  EXPECT_THROW(
      (void)rename_urls_order_preserving(logs::TableView(table), "zz."),
      std::invalid_argument);
}

TEST(OracleMetamorphic, DetectionLabelStripRealignsRenamedKeys) {
  core::PeriodicityReport report;
  core::ObjectPeriodicity object;
  object.url = "https://zz9.a.example/x";
  core::ClientPeriodRecord record;
  record.client = "c1";
  record.periodic = true;
  record.period_seconds = 30.0;
  object.clients.push_back(record);
  report.objects.push_back(object);

  const auto labels = detection_labels(report, "zz9.");
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_TRUE(labels.contains({"https://a.example/x", "c1"}));
}

}  // namespace
}  // namespace jsoncdn::oracle
