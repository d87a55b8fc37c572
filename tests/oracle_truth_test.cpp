#include "oracle/ground_truth.h"

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

#include "cdn/network.h"
#include "workload/scenario.h"

namespace jsoncdn::oracle {
namespace {

TruthSidecar sample_sidecar() {
  TruthSidecar truth;
  truth.total_events = 1234;
  truth.periodic_events = 56;
  truth.population_shares = {{"mobile-app", 0.5}, {"embedded", 0.12}};
  truth.clients.push_back(
      {"abc123|UA with\ttab and\nnewline", "mobile-app", "mobile",
       "native-app", true});
  truth.clients.push_back({"def456|", "no-ua", "unknown", "unknown", false});
  truth.periodic_flows.push_back(
      {"abc123|UA with\ttab and\nnewline",
       "https://api.fin-001.example/poll?x=100%25", 30.0, 120});
  truth.sessions.push_back(
      {"abc123|UA with\ttab and\nnewline",
       {"https://a.example/1", "https://a.example/2", "https://a.example/3"}});
  truth.template_of_url = {
      {"https://a.example/article/99", "https://a.example/article/{id}"}};
  truth.industry_of_domain = {{"api.fin-001.example", "Financial Services"}};
  // The '+' is load-bearing: unescape must not fold it to a space the way
  // form decoding would, or attacker keys stop joining the log.
  truth.attackers.push_back(
      {"fee1dead|Scrapy/2.11.0 (+https://scrapy.org)", "scraper", 352});
  truth.hostile_events = 352;
  return truth;
}

TEST(OracleTruth, RoundTripsThroughStream) {
  const auto truth = sample_sidecar();
  std::stringstream stream;
  write_truth(stream, truth);

  const auto loaded = read_truth(stream);
  EXPECT_EQ(loaded.total_events, truth.total_events);
  EXPECT_EQ(loaded.periodic_events, truth.periodic_events);
  EXPECT_EQ(loaded.population_shares, truth.population_shares);
  ASSERT_EQ(loaded.clients.size(), truth.clients.size());
  for (std::size_t i = 0; i < truth.clients.size(); ++i) {
    EXPECT_EQ(loaded.clients[i].client_key, truth.clients[i].client_key);
    EXPECT_EQ(loaded.clients[i].profile_class,
              truth.clients[i].profile_class);
    EXPECT_EQ(loaded.clients[i].device, truth.clients[i].device);
    EXPECT_EQ(loaded.clients[i].agent, truth.clients[i].agent);
    EXPECT_EQ(loaded.clients[i].runs_periodic_flow,
              truth.clients[i].runs_periodic_flow);
  }
  ASSERT_EQ(loaded.periodic_flows.size(), 1u);
  EXPECT_EQ(loaded.periodic_flows[0].client_key,
            truth.periodic_flows[0].client_key);
  EXPECT_EQ(loaded.periodic_flows[0].url, truth.periodic_flows[0].url);
  EXPECT_DOUBLE_EQ(loaded.periodic_flows[0].period_seconds, 30.0);
  EXPECT_EQ(loaded.periodic_flows[0].request_count, 120u);
  ASSERT_EQ(loaded.sessions.size(), 1u);
  EXPECT_EQ(loaded.sessions[0].urls, truth.sessions[0].urls);
  EXPECT_EQ(loaded.template_of_url, truth.template_of_url);
  EXPECT_EQ(loaded.industry_of_domain, truth.industry_of_domain);
  ASSERT_EQ(loaded.attackers.size(), 1u);
  EXPECT_EQ(loaded.attackers[0].client_key, truth.attackers[0].client_key);
  EXPECT_EQ(loaded.attackers[0].kind, "scraper");
  EXPECT_EQ(loaded.attackers[0].request_count, 352u);
  EXPECT_EQ(loaded.hostile_events, 352u);
}

TEST(OracleTruth, HeaderIsVersioned) {
  std::stringstream stream;
  write_truth(stream, sample_sidecar());
  std::string first_line;
  std::getline(stream, first_line);
  EXPECT_EQ(first_line, truth_header());
}

TEST(OracleTruth, RejectsMissingHeader) {
  std::stringstream stream("stat\ttotal_events\t5\n");
  EXPECT_THROW((void)read_truth(stream), std::runtime_error);
}

TEST(OracleTruth, RejectsEmptyInput) {
  std::stringstream stream;
  EXPECT_THROW((void)read_truth(stream), std::runtime_error);
}

TEST(OracleTruth, RejectsMalformedRows) {
  const auto parse = [](const std::string& row) {
    std::stringstream stream(std::string(truth_header()) + "\n" + row + "\n");
    return read_truth(stream);
  };
  EXPECT_THROW((void)parse("stat\ttotal_events\tnot-a-number"),
               std::runtime_error);
  EXPECT_THROW((void)parse("stat\tbogus_name\t5"), std::runtime_error);
  EXPECT_THROW((void)parse("client\tonly\tthree\tcols"), std::runtime_error);
  EXPECT_THROW((void)parse("client\tk\tc\td\ta\t2"), std::runtime_error);
  EXPECT_THROW((void)parse("flow\tk\tu\t-3\t10"), std::runtime_error);
  EXPECT_THROW((void)parse("flow\tk\tu\t30\tmany"), std::runtime_error);
  EXPECT_THROW((void)parse("session"), std::runtime_error);
  EXPECT_THROW((void)parse("mystery\ta\tb"), std::runtime_error);
}

TEST(OracleTruth, FileHelpersThrowOnMissingPath) {
  EXPECT_THROW((void)read_truth_file("/nonexistent/dir/x.truth"),
               std::runtime_error);
  EXPECT_THROW(write_truth_file("/nonexistent/dir/x.truth", sample_sidecar()),
               std::runtime_error);
}

// The sidecar must speak the log's identity vocabulary: every client key it
// emits joins against the records the CDN actually logged for that workload.
TEST(OracleTruth, SidecarKeysJoinAgainstTheEdgeLog) {
  auto config = workload::long_term_scenario(0.001, 5);
  config.duration_seconds = 1800.0;
  config.n_clients = 120;
  const workload::WorkloadGenerator generator(config);
  const auto workload = generator.generate();
  cdn::CdnNetwork network(generator.catalog().objects(),
                          cdn::NetworkParams{});
  const auto dataset = network.run(workload.events);
  const auto sidecar =
      make_sidecar(workload.truth, config, network.anonymizer());

  ASSERT_EQ(sidecar.clients.size(), workload.truth.clients.size());
  std::unordered_set<std::string> truth_keys;
  for (const auto& client : sidecar.clients) {
    // Pseudonymized: the id half of the key is the anonymizer's 16-hex-digit
    // pseudonym, never the raw generator address.
    const auto bar = client.client_key.find('|');
    ASSERT_NE(bar, std::string::npos) << client.client_key;
    const auto id = client.client_key.substr(0, bar);
    EXPECT_EQ(id.size(), 16u) << client.client_key;
    EXPECT_EQ(id.find_first_not_of("0123456789abcdef"), std::string::npos)
        << client.client_key;
    truth_keys.insert(client.client_key);
  }
  ASSERT_FALSE(dataset.empty());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const std::string key(dataset.client_key(i));
    EXPECT_TRUE(truth_keys.contains(key))
        << "log record client has no truth row: " << key;
  }

  // Every domain the log saw carries an exact industry label.
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const std::string domain(dataset.domain(i));
    EXPECT_TRUE(sidecar.industry_of_domain.contains(domain)) << domain;
  }

  // Session truth is present and well-formed (app-graph sessions exist even
  // in a small long-term window).
  EXPECT_FALSE(sidecar.sessions.empty());
  for (const auto& session : sidecar.sessions) {
    EXPECT_TRUE(truth_keys.contains(session.client_key));
    EXPECT_FALSE(session.urls.empty());
  }
}

}  // namespace
}  // namespace jsoncdn::oracle
