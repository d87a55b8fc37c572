// Golden regression for the default detector: a committed 2700 s workload
// capture plus the per-flow labels the pre-refactor ACF+FFT pipeline
// produced for it, periods stored as hexfloats. The strategy refactor (and
// anything after it) must reproduce every label and every period to the
// bit, or this fails with the exact flow that moved.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/periodicity.h"
#include "logs/zerocopy.h"
#include "oracle/metamorphic.h"

#ifndef JSONCDN_TEST_DATA_DIR
#error "JSONCDN_TEST_DATA_DIR must point at tests/data"
#endif

namespace jsoncdn::core {
namespace {

oracle::DetectionLabels read_golden_labels(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing golden labels: " << path;
  oracle::DetectionLabels labels;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string url;
    std::string client;
    std::string flag;
    std::string period;
    std::getline(row, url, '\t');
    std::getline(row, client, '\t');
    std::getline(row, flag, '\t');
    std::getline(row, period, '\t');
    labels[{url, client}] = {flag == "1",
                             std::strtod(period.c_str(), nullptr)};
  }
  return labels;
}

TEST(PeriodicityGolden, DefaultStrategyReproducesCommittedLabels) {
  const std::string data_dir = JSONCDN_TEST_DATA_DIR;
  const auto table =
      logs::read_log_table(data_dir + "/periodicity_golden.tsv");
  ASSERT_GT(table.size(), 1000u);

  PeriodicityConfig config;
  config.threads = 1;
  const auto json_rows = table.json_rows();
  const auto report =
      analyze_periodicity(logs::TableView(table, json_rows), config);
  const auto labels = oracle::detection_labels(report);

  const auto golden =
      read_golden_labels(data_dir + "/periodicity_golden_labels.tsv");
  ASSERT_FALSE(golden.empty());
  std::size_t golden_periodic = 0;
  for (const auto& [key, value] : golden) golden_periodic += value.first;
  ASSERT_GT(golden_periodic, 0u) << "fixture carries no periodic flows";

  EXPECT_EQ(labels.size(), golden.size());
  for (const auto& [key, expected] : golden) {
    const auto it = labels.find(key);
    ASSERT_NE(it, labels.end())
        << "flow missing from report: " << key.first << " / " << key.second;
    EXPECT_EQ(it->second.first, expected.first)
        << "label flipped: " << key.first << " / " << key.second;
    // Bit-identical, not approximately equal: the fixture stores hexfloats.
    EXPECT_EQ(it->second.second, expected.second)
        << "period moved: " << key.first << " / " << key.second;
  }
}

}  // namespace
}  // namespace jsoncdn::core
