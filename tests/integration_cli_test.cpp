// Integration: the file-based pipeline the CLI tools use — generate a
// dataset, serialize it to disk, read it back, and verify the analyses see
// the same traffic (the paper's collect-then-analyze-offline workflow).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <unordered_set>

#include "cdn/network.h"
#include "core/characterization.h"
#include "logs/csv.h"
#include "logs/zerocopy.h"
#include "oracle/ground_truth.h"
#include "workload/scenario.h"

namespace jsoncdn {
namespace {

class FilePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test filename: parallel ctest processes race on a shared path.
    path_ = ::testing::TempDir() + "jsoncdn_pipeline_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(FilePipelineTest, WriteReadAnalyzeAgrees) {
  workload::WorkloadGenerator generator(
      workload::short_term_scenario(0.001, 99));
  const auto workload = generator.generate();
  cdn::CdnNetwork network(generator.catalog().objects(), {});
  const auto dataset = network.run(workload.events);

  {
    std::ofstream out(path_);
    ASSERT_TRUE(out.good());
    logs::LogWriter writer(out);
    for (std::uint32_t i = 0; i < dataset.size(); ++i)
      writer.write(dataset.record(i));
    ASSERT_EQ(writer.written(), dataset.size());
  }

  logs::IngestReport report;
  auto loaded = logs::read_log_table(path_, logs::IngestOptions{}, &report);
  loaded.sort_by_time();
  EXPECT_EQ(report.malformed, 0u);
  ASSERT_EQ(loaded.size(), dataset.size());
  EXPECT_EQ(loaded.distinct_domains(), dataset.distinct_domains());
  EXPECT_EQ(loaded.distinct_clients(), dataset.distinct_clients());
  EXPECT_EQ(loaded.distinct_objects(), dataset.distinct_objects());

  // The analyses must be invariant under the disk round trip.
  const auto direct_rows = dataset.json_rows();
  const auto disk_rows = loaded.json_rows();
  const logs::TableView direct_json(dataset, direct_rows);
  const logs::TableView disk_json(loaded, disk_rows);
  const auto direct = core::characterize_methods(direct_json);
  const auto from_disk = core::characterize_methods(disk_json);
  EXPECT_EQ(direct.get, from_disk.get);
  EXPECT_EQ(direct.post, from_disk.post);

  const auto direct_source = core::characterize_source(direct_json);
  const auto disk_source = core::characterize_source(disk_json);
  EXPECT_EQ(direct_source.total_requests, disk_source.total_requests);
  EXPECT_EQ(direct_source.browser_requests, disk_source.browser_requests);
  EXPECT_EQ(direct_source.total_ua_strings, disk_source.total_ua_strings);
}

// The jsoncdn-generate --scenario scraper --ground-truth path: a hostile
// scenario's truth sidecar must carry per-attacker labels that survive the
// disk round trip and join back onto the anonymized log by client key.
TEST_F(FilePipelineTest, HostileScenarioSidecarCarriesAttackerLabels) {
  const auto config = workload::scenario_by_name("scraper", 0.001, 44);
  ASSERT_GT(config.hostile.hostile_share, 0.0);
  workload::WorkloadGenerator generator(config);
  const auto workload = generator.generate();
  ASSERT_FALSE(workload.truth.attackers.empty());
  ASSERT_GT(workload.truth.hostile_events, 0u);

  cdn::CdnNetwork network(generator.catalog().objects(), {});
  const auto dataset = network.run(workload.events);
  const auto sidecar =
      oracle::make_sidecar(workload.truth, config, network.anonymizer());
  oracle::write_truth_file(path_, sidecar);
  const auto loaded = oracle::read_truth_file(path_);

  ASSERT_EQ(loaded.attackers.size(), workload.truth.attackers.size());
  EXPECT_EQ(loaded.hostile_events, workload.truth.hostile_events);
  std::unordered_map<std::string, std::uint64_t> truth_count;
  for (const auto& a : loaded.attackers) {
    workload::AttackKind kind{};
    ASSERT_TRUE(workload::parse_attack_kind(a.kind, kind)) << a.kind;
    EXPECT_GT(a.request_count, 0u);
    truth_count.emplace(a.client_key, a.request_count);
  }

  // Every attacker key joins records in the served log (pseudonymized the
  // same way), and the per-request label count matches the truth.
  std::unordered_map<std::string, std::uint64_t> log_count;
  for (std::uint32_t i = 0; i < dataset.size(); ++i) {
    const auto it = truth_count.find(std::string(dataset.client_key(i)));
    if (it != truth_count.end()) ++log_count[it->first];
  }
  EXPECT_EQ(log_count.size(), truth_count.size());
  for (const auto& [key, count] : truth_count) {
    EXPECT_EQ(log_count[key], count) << "attacker key " << key;
  }
}

TEST_F(FilePipelineTest, TruncatedFileDegradesGracefully) {
  {
    std::ofstream out(path_);
    logs::LogWriter writer(out);
    logs::LogRecord record;
    record.url = "https://d/x";
    record.content_type = "application/json";
    writer.write(record);
    out << "corrupted tail without enough columns";
  }
  logs::IngestReport report;
  const auto table =
      logs::read_log_table(path_, logs::IngestOptions{}, &report);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(report.malformed, 1u);
}

}  // namespace
}  // namespace jsoncdn
