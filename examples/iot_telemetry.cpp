// IoT / machine-to-machine scenario (§5.1): a fleet of embedded devices
// polls and uploads on fixed periods. The example runs the paper's
// periodicity detector over the resulting edge logs, scores it against the
// generator's ground truth (precision/recall — something the paper could not
// do on production traffic), and then quantifies the paper's proposed
// optimization: deprioritizing machine traffic to improve human latency.
//
//   $ ./iot_telemetry [n_clients]
//
#include <iostream>
#include <unordered_set>

#include "cdn/network.h"
#include "cdn/prioritizer.h"
#include "cli_flags.h"
#include "core/periodicity.h"
#include "core/report.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  using namespace jsoncdn;

  workload::GeneratorConfig config;
  config.seed = 2026;
  config.duration_seconds = 6 * 3600.0;  // six hours of fleet activity
  config.n_clients =
      argc > 1 ? cli::positive_value<std::size_t>("n_clients", argv[1]) : 1200;
  config.catalog.domains_per_industry = 2;
  // Embedded-heavy population: this is a smart-device fleet.
  config.shares = {0.18, 0.02, 0.02, 0.52, 0.08, 0.14, 0.04};
  config.periodic.embedded = 0.75;
  config.periodic.library = 0.50;

  std::cout << "IoT telemetry scenario: " << config.n_clients
            << " clients over " << config.duration_seconds / 3600.0
            << " h\n\n";

  workload::WorkloadGenerator generator(config);
  const auto workload = generator.generate();
  cdn::CdnNetwork network(generator.catalog().objects(), {});
  const auto edge_log = network.run(workload.events);
  const auto json_rows = edge_log.json_rows();
  const logs::TableView json(edge_log, json_rows);
  std::cout << "generated " << edge_log.size() << " log records ("
            << json.size() << " JSON), ground truth: "
            << workload.truth.periodic_flows.size() << " periodic flows, "
            << workload.truth.periodic_events << " periodic requests\n\n";

  // --- Detect periodicity (the paper's §5.1 pipeline). -------------------
  core::PeriodicityConfig pconfig;
  const auto report = core::analyze_periodicity(json, pconfig);
  std::cout << core::render_periodicity_summary(report) << "\n";
  std::cout << core::render_period_histogram(report.object_periods) << "\n";
  std::cout << core::render_periodic_client_cdf(report.periodic_client_shares)
            << "\n";

  // --- Score against ground truth. ----------------------------------------
  // Truth flows are keyed by (anonymized client, url); detection labels
  // client-object flows.
  const auto& anonymizer = network.anonymizer();
  std::unordered_set<std::string> truth_keys;
  for (const auto& pt : workload.truth.periodic_flows) {
    if (pt.request_count < 10) continue;  // below the paper's flow filter
    truth_keys.insert(anonymizer.pseudonym(pt.client_address) + "|" +
                      pt.user_agent + "@" + pt.url);
  }
  std::size_t flow_tp = 0;       // flow detected periodic, flow is truth
  std::size_t flow_detected = 0; // flows detected periodic (any period)
  std::size_t truth_analyzed = 0;
  std::size_t matched_label = 0; // the paper's object-matching label
  for (const auto& obj : report.objects) {
    for (const auto& client : obj.clients) {
      const bool is_truth = truth_keys.contains(client.client + "@" + obj.url);
      if (is_truth) ++truth_analyzed;
      if (client.periodic) {
        ++flow_detected;
        if (is_truth) ++flow_tp;
      }
      if (client.matches_object) ++matched_label;
    }
  }
  const double precision =
      flow_detected == 0
          ? 0.0
          : static_cast<double>(flow_tp) / static_cast<double>(flow_detected);
  const double recall = truth_analyzed == 0
                            ? 0.0
                            : static_cast<double>(flow_tp) /
                                  static_cast<double>(truth_analyzed);
  std::cout << "detector vs ground truth (client-object flows passing the "
               ">=10 filters):\n"
            << "  detected periodic: " << flow_detected << ", precision "
            << precision << ", recall " << recall << "\n"
            << "  labelled periodic by the paper's object-match rule: "
            << matched_label << "\n"
            << "  (truth flows dropped by the object>=10-clients filter: "
            << truth_keys.size() - truth_analyzed << ")\n\n";

  // --- Deprioritization (the paper's proposed optimization). -------------
  // Build scheduler jobs from the logs: service time approximates edge CPU
  // cost; machine label comes from the *detector*, as an operator would do.
  std::unordered_set<std::string> machine_objects;
  for (const auto& obj : report.objects) {
    if (obj.object_periodic && obj.periodic_client_share > 0.5)
      machine_objects.insert(obj.url);
  }
  std::vector<cdn::SchedulerJob> jobs;
  jobs.reserve(json.size());
  for (const auto row : json_rows) {
    cdn::SchedulerJob job;
    job.arrival = edge_log.timestamp(row);
    job.service =
        0.0008 + static_cast<double>(edge_log.response_bytes(row)) / 2e8;
    job.machine = machine_objects.contains(std::string(edge_log.url(row)));
    jobs.push_back(job);
  }
  // Compress arrivals so the edge runs near saturation (queueing visible).
  double total_service = 0.0;
  for (const auto& j : jobs) total_service += j.service;
  const double busy_target = 0.9;
  const double compress =
      total_service / (busy_target * config.duration_seconds);
  for (auto& j : jobs) j.arrival *= compress;

  const auto fifo =
      cdn::simulate_schedule(jobs, cdn::SchedulingPolicy::kFifo, 1);
  const auto prio =
      cdn::simulate_schedule(jobs, cdn::SchedulingPolicy::kHumanPriority, 1);
  std::cout << "scheduling (single worker, ~" << busy_target * 100
            << "% utilization):\n"
            << "  FIFO          : human p50 wait "
            << fifo.human.waiting.p50 * 1000.0 << " ms, p99 "
            << fifo.human.waiting.p99 * 1000.0 << " ms (machine p99 "
            << fifo.machine.waiting.p99 * 1000.0 << " ms)\n"
            << "  human-priority: human p50 wait "
            << prio.human.waiting.p50 * 1000.0 << " ms, p99 "
            << prio.human.waiting.p99 * 1000.0 << " ms (machine p99 "
            << prio.machine.waiting.p99 * 1000.0 << " ms)\n";
  return 0;
}
