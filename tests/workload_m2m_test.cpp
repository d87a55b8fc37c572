// Machine-to-machine structure of the generated workload: hub concentration,
// bounded beacon sessions, and webview HTML emission.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "http/mime.h"
#include "workload/generator.h"

namespace jsoncdn::workload {
namespace {

GeneratorConfig m2m_config() {
  GeneratorConfig config;
  config.seed = 555;
  config.duration_seconds = 4 * 3600.0;
  config.n_clients = 800;
  config.catalog.domains_per_industry = 2;
  config.shares = {0.2, 0.02, 0.02, 0.5, 0.06, 0.15, 0.05};
  config.periodic.embedded = 0.8;
  return config;
}

// Share of `workload`'s periodic flows whose object sits on one of the
// generator's m2m hub domains.
double hub_share(const WorkloadGenerator& generator, const Workload& workload) {
  const auto hubs =
      generator.catalog().top_domains(GeneratorConfig::m2m_top_domains);
  std::unordered_set<std::string> hub_names;
  for (const auto d : hubs)
    hub_names.insert(generator.catalog().domains()[d].name);
  std::size_t on_hubs = 0;
  for (const auto& pt : workload.truth.periodic_flows) {
    const auto* obj = generator.catalog().objects().find(pt.url);
    if (obj != nullptr && hub_names.contains(obj->domain)) ++on_hubs;
  }
  return static_cast<double>(on_hubs) /
         static_cast<double>(workload.truth.periodic_flows.size());
}

TEST(M2mConcentration, PeriodicFlowsClusterOnHubDomains) {
  WorkloadGenerator generator(m2m_config());
  const auto workload = generator.generate();
  ASSERT_FALSE(workload.truth.periodic_flows.empty());
  for (const auto& pt : workload.truth.periodic_flows) {
    ASSERT_NE(generator.catalog().objects().find(pt.url), nullptr);
  }
  // A flow picks a hub with probability m2m_concentration, and otherwise
  // may still land on one through the client's own favourite domain.
  EXPECT_GT(hub_share(generator, workload), GeneratorConfig::m2m_concentration);
}

TEST(M2mConcentration, ZeroConcentrationSpreadsFlows) {
  WorkloadGenerator generator(m2m_config());
  const auto workload = generator.generate();
  std::unordered_set<std::string> domains;
  for (const auto& pt : workload.truth.periodic_flows) {
    domains.insert(generator.catalog().objects().find(pt.url)->domain);
  }
  // The flows that do not pick a hub follow their client's favourite
  // domain, so some land off the hubs and reach domains beyond them.
  EXPECT_LT(hub_share(generator, workload), 1.0);
  EXPECT_GT(domains.size(), GeneratorConfig::m2m_top_domains);
}

TEST(TopDomains, OrderedByPopularity) {
  WorkloadGenerator generator(m2m_config());
  const auto& catalog = generator.catalog();
  const auto top = catalog.top_domains(5);
  ASSERT_EQ(top.size(), 5u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(catalog.domains()[top[i - 1]].popularity_weight,
              catalog.domains()[top[i]].popularity_weight);
  }
  // Asking for more than exist clamps.
  EXPECT_EQ(catalog.top_domains(10'000).size(), catalog.domains().size());
}

TEST(BeaconSessions, BoundedActivitySpan) {
  auto config = m2m_config();
  config.shares = {0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0};  // all library
  config.periodic.library = 0.0;                        // beacons only
  // Activations are shorter than the four-hour window.
  static_assert(GeneratorConfig::beacon_session_hi_seconds < 4 * 3600.0);
  WorkloadGenerator generator(config);
  const auto workload = generator.generate();

  // Group events per client and check each client's activity span.
  std::unordered_map<std::string, std::pair<double, double>> spans;
  for (const auto& ev : workload.events) {
    auto [it, inserted] =
        spans.try_emplace(ev.client_address, ev.time, ev.time);
    it->second.first = std::min(it->second.first, ev.time);
    it->second.second = std::max(it->second.second, ev.time);
  }
  ASSERT_FALSE(spans.empty());
  for (const auto& [client, span] : spans) {
    EXPECT_LE(span.second - span.first,
              GeneratorConfig::beacon_session_hi_seconds + 1e-6)
        << client;
  }
}

TEST(Webview, EmitsHtmlAfterAppSessions) {
  auto config = m2m_config();
  config.shares = {1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};  // all mobile apps
  config.periodic.mobile_app = 0.0;
  config.app_webview_html_prob = 1.0;
  WorkloadGenerator generator(config);
  const auto workload = generator.generate();
  std::size_t html = 0;
  for (const auto& ev : workload.events) {
    const auto* obj = generator.catalog().objects().find(ev.url);
    ASSERT_NE(obj, nullptr);
    if (obj->content == http::ContentClass::kHtml) ++html;
  }
  EXPECT_GT(html, 0u);
}

TEST(Webview, DisabledMeansAppTrafficIsHtmlFree) {
  auto config = m2m_config();
  config.shares = {1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  config.periodic.mobile_app = 0.0;
  config.app_webview_html_prob = 0.0;
  WorkloadGenerator generator(config);
  const auto workload = generator.generate();
  for (const auto& ev : workload.events) {
    const auto* obj = generator.catalog().objects().find(ev.url);
    ASSERT_NE(obj, nullptr);
    EXPECT_NE(obj->content, http::ContentClass::kHtml);
  }
}

}  // namespace
}  // namespace jsoncdn::workload
