// Metamorphic relations for the whole detector portfolio: time-shift,
// uniform time-scale, flow-disjoint interleaving, and benign noise all have
// known label algebra (identity, scaled periods, identity on original
// flows, identity on original flows) that every strategy must satisfy on
// the same generated workload. No reference outputs: the relations grade
// the detectors against themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cdn/network.h"
#include "core/period_detector.h"
#include "core/periodicity.h"
#include "logs/table.h"
#include "oracle/metamorphic.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace jsoncdn::core {
namespace {

class DetectorMetamorphicTest
    : public ::testing::TestWithParam<DetectorStrategy> {
 protected:
  static void SetUpTestSuite() {
    auto wconfig = workload::long_term_scenario(0.001, 31);
    wconfig.duration_seconds = 1800.0;
    wconfig.n_clients = 120;
    wconfig.periodic.embedded = 0.8;
    wconfig.periodic.library = 0.5;
    const workload::WorkloadGenerator generator(wconfig);
    const auto workload = generator.generate();
    cdn::CdnNetwork network(generator.catalog().objects(),
                            cdn::NetworkParams{});
    const auto edge_log = network.run(workload.events);
    dataset_ = new logs::LogTable(edge_log.select(edge_log.json_rows()));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  oracle::DetectionLabels labels_of(const logs::LogTable& table,
                                    const std::string& strip = {}) const {
    PeriodicityConfig config;
    config.strategy = GetParam();
    config.threads = 1;
    return oracle::detection_labels(
        analyze_periodicity(logs::TableView(table), config), strip);
  }

  static logs::TableView json() { return logs::TableView(*dataset_); }

  static logs::LogTable* dataset_;
};

logs::LogTable* DetectorMetamorphicTest::dataset_ = nullptr;

TEST_P(DetectorMetamorphicTest, TimeShiftPreservesLabels) {
  const auto original = labels_of(*dataset_);
  ASSERT_FALSE(original.empty());
  const auto shifted = labels_of(oracle::shift_time(json(), 86400.0));
  // Labels exact; periods may wiggle at the per-timestamp rounding ulp.
  EXPECT_TRUE(oracle::labels_equivalent(shifted, original, 1e-9));
}

TEST_P(DetectorMetamorphicTest, TimeScalePreservesLabelsAndScalesPeriods) {
  const double factor = 1.75;
  const auto original = labels_of(*dataset_);
  ASSERT_FALSE(original.empty());
  const auto scaled = labels_of(oracle::scale_time(json(), factor));
  // Period quantization (bin width, periodogram grid) rescales with the
  // input, but the caps that don't scale (the 1 s sampling floor) let
  // refined periods move by a small relative amount.
  EXPECT_TRUE(oracle::labels_equivalent(
      scaled, oracle::scale_periods(original, factor), 0.05));
}

TEST_P(DetectorMetamorphicTest, InterleavingDisjointCopyPreservesLabels) {
  const auto original = labels_of(*dataset_);
  ASSERT_FALSE(original.empty());
  const auto mirror = oracle::rename_disjoint(json(), "-mirror");
  const auto merged =
      oracle::merge_datasets(json(), logs::TableView(mirror));
  const auto merged_labels = labels_of(merged);
  EXPECT_TRUE(oracle::labels_equivalent(
      oracle::restrict_labels(merged_labels, original), original));
}

TEST_P(DetectorMetamorphicTest, BenignNoiseDoesNotFlipLabels) {
  const auto original = labels_of(*dataset_);
  ASSERT_FALSE(original.empty());
  const auto noisy =
      labels_of(oracle::inject_benign_noise(json(), 400, 99));
  EXPECT_TRUE(oracle::labels_equivalent(
      oracle::restrict_labels(noisy, original), original));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, DetectorMetamorphicTest,
    ::testing::Values(DetectorStrategy::kAcfFft,
                      DetectorStrategy::kLombScargle,
                      DetectorStrategy::kAutoperiod,
                      DetectorStrategy::kCfdAutoperiod,
                      DetectorStrategy::kMultiPeriod),
    [](const ::testing::TestParamInfo<DetectorStrategy>& info) {
      std::string name(detector_name(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace jsoncdn::core
