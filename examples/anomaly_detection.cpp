// Anomaly detection on JSON traffic — both mechanisms the paper sketches:
// ngram-based ("detect when a highly unlikely object is requested", §5.2)
// and period-based ("an object requested at a different period than it is
// intended", §5.1). Normal clients follow app dependency graphs and fixed
// polling periods; injected anomalies walk URLs at random or drift off their
// period, and the detectors must rank them apart.
//
//   $ ./anomaly_detection
//
#include <algorithm>
#include <iostream>
#include <vector>

#include "cdn/network.h"
#include "core/anomaly.h"
#include "core/prefetch.h"
#include "logs/table.h"
#include "stats/rng.h"
#include "workload/generator.h"

int main() {
  using namespace jsoncdn;

  workload::GeneratorConfig config;
  config.seed = 31337;
  config.catalog_seed = 4242;  // train and test days share the app ecosystem
  config.duration_seconds = 2 * 3600.0;
  config.n_clients = 2500;
  config.catalog.domains_per_industry = 2;
  config.shares = {0.70, 0.03, 0.03, 0.10, 0.03, 0.08, 0.03};

  // Day 1: clean traffic the detector trains on. Day 2: fresh client
  // population, into which the anomalies are injected. Training on clean
  // history matters — a model trained on data containing the anomaly would
  // memorize it.
  workload::WorkloadGenerator train_generator(config);
  auto train_workload = train_generator.generate();

  config.seed = 31338;
  workload::WorkloadGenerator generator(config);
  auto workload = generator.generate();

  // --- Inject anomalous clients: random walks over the URL space. ---------
  stats::Rng rng(777);
  const auto& objects = generator.catalog().objects().objects();
  std::vector<std::string> anomalous_clients;
  for (int a = 0; a < 5; ++a) {
    const std::string address = "192.0.2." + std::to_string(a + 1);
    anomalous_clients.push_back(address);
    double t = rng.uniform(0.0, config.duration_seconds / 2.0);
    for (int i = 0; i < 40 && t < config.duration_seconds; ++i) {
      workload::RequestEvent ev;
      ev.time = t;
      ev.client_address = address;
      ev.user_agent = "NewsReader/3.0.0 (iPhone; iOS 12.4.1; Scale/3.00)";
      ev.method = http::Method::kGet;
      ev.url = objects[static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(objects.size()) - 1))]
                   .url;
      workload.events.push_back(std::move(ev));
      t += rng.uniform(5.0, 60.0);
    }
  }
  std::sort(workload.events.begin(), workload.events.end(),
            [](const auto& x, const auto& y) { return x.time < y.time; });

  cdn::CdnNetwork train_network(train_generator.catalog().objects(), {});
  const auto train_log = train_network.run(train_workload.events);
  const auto train_rows = train_log.json_rows();
  const logs::TableView train_json(train_log, train_rows);

  cdn::CdnNetwork network(generator.catalog().objects(), {});
  const auto edge_log = network.run(workload.events);
  const auto json_rows = edge_log.json_rows();
  const logs::TableView json(edge_log, json_rows);

  // --- Train on day 1, score every day-2 client flow. ----------------------
  const auto model = core::train_prefetch_model(train_json, /*context_len=*/1);
  const auto flows = logs::extract_client_flows(json, /*min_requests=*/10);

  struct Scored {
    std::string client;
    core::SequenceAnomaly anomaly;
  };
  std::vector<Scored> scored;
  for (const auto& flow : flows) {
    std::vector<std::string> tokens;
    tokens.reserve(flow.record_indices.size());
    for (const auto idx : flow.record_indices)
      tokens.emplace_back(edge_log.url(json[idx]));
    scored.push_back({flow.client, core::score_sequence(model, tokens)});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    return a.anomaly.mean_surprisal > b.anomaly.mean_surprisal;
  });

  // The injected clients should dominate the top of the ranking.
  const auto& anonymizer = network.anonymizer();
  std::size_t injected_in_top10 = 0;
  std::cout << "top anomalous client flows by mean surprisal (of "
            << scored.size() << " flows with >=10 requests):\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(10, scored.size()); ++i) {
    bool injected = false;
    for (const auto& addr : anomalous_clients) {
      if (scored[i].client.rfind(anonymizer.pseudonym(addr), 0) == 0) {
        injected = true;
        ++injected_in_top10;
        break;
      }
    }
    std::cout << "  " << i + 1 << ". surprisal "
              << scored[i].anomaly.mean_surprisal << " bits, unpredicted "
              << scored[i].anomaly.unpredicted_share * 100.0 << "%"
              << (injected ? "   <-- injected anomaly" : "") << "\n";
  }
  std::cout << "\ninjected anomalies in top 10: " << injected_in_top10
            << " / " << anomalous_clients.size() << "\n\n";

  // --- Period anomaly: a poller that drifts off its schedule. -------------
  std::vector<double> steady_times;
  std::vector<double> drifting_times;
  double t = 0.0;
  stats::Rng prng(99);
  for (int i = 0; i < 60; ++i) {
    steady_times.push_back(30.0 * i + prng.normal(0.0, 0.3));
    // Drifting device: period stretches 2% per tick after tick 30.
    t += i < 30 ? 30.0 : 30.0 * (1.0 + 0.02 * (i - 30));
    drifting_times.push_back(t + prng.normal(0.0, 0.3));
  }
  const auto steady = core::check_period(steady_times, 30.0);
  const auto drifting = core::check_period(drifting_times, 30.0);
  std::cout << "period conformance vs expected 30 s:\n"
            << "  steady poller:   " << steady.deviant_share * 100.0
            << "% deviant gaps\n"
            << "  drifting poller: " << drifting.deviant_share * 100.0
            << "% deviant gaps\n";
  return 0;
}
