// jsoncdn-generate — produce a synthetic CDN edge log file.
//
//   jsoncdn-generate [--scenario short|long] [--scale S] [--seed N]
//                    [--out FILE] [--json-only] [--ground-truth FILE]
//                    [--jlog-v2 FILE] [--jlog-chunk-rows N]
//                    [--fault-rate F] [--fault-seed N] [--fault-outages N]
//
// Writes the TSV log format (logs/csv.h) that jsoncdn-analyze consumes, so
// the full pipeline can be driven from the shell exactly like the paper's:
// collect logs on the edge, analyze offline.
//
// --jlog-v2 additionally writes the same records as a compressed `.jlog`
// chunk store (shard/format.h): jsoncdn-analyze loads it directly, skipping
// the TSV parse entirely, or analyzes it out of core with --streaming;
// --jlog-chunk-rows tunes its chunk geometry.
//
// --ground-truth additionally writes the oracle sidecar (oracle/ground_truth.h)
// holding the generator's labels keyed the way the log keys clients, so
// jsoncdn-validate can score the analyses against known truth.
//
// --fault-rate enables deterministic origin fault injection: F is the total
// per-request fault probability, split across errors, timeouts, truncated
// bodies, and latency spikes. The fault seed defaults to JSONCDN_FAULT_SEED
// (else the workload seed), so a fixed seed reproduces the incident
// byte-for-byte — logs, resilience counters, and breaker timeline.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "cdn/network.h"
#include "cli_flags.h"
#include "faults/plan.h"
#include "logs/csv.h"
#include "logs/table.h"
#include "oracle/ground_truth.h"
#include "shard/writer.h"
#include "workload/scenario.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: jsoncdn-generate [--scenario NAME] [--list-scenarios]\n"
               "                        [--hostile-share H] (0..1 override "
               "of the scenario's hostile share)\n"
               "                        [--scale S]\n"
               "                        [--seed N] [--out FILE] [--json-only]\n"
               "                        [--ground-truth FILE] (oracle "
               "sidecar)\n"
               "                        [--jlog-v2 FILE]    (compressed chunk "
               "store sidecar)\n"
               "                        [--jlog-chunk-rows N] (v2 rows per "
               "chunk, default 65536)\n"
               "                        [--fault-rate F]    (0..1, default 0)\n"
               "                        [--fault-seed N]    (default: "
               "JSONCDN_FAULT_SEED, else --seed)\n"
               "                        [--fault-outages N] (outage windows "
               "per origin, at most 1000)\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jsoncdn;

  std::string scenario = "short-term";
  double hostile_share = -1.0;
  double scale = 0.005;
  std::uint64_t seed = 42;
  std::string out_path = "jsoncdn.log";
  std::string truth_path;
  std::string jlog_v2_path;
  std::uint32_t jlog_chunk_rows = 65536;
  bool json_only = false;
  double fault_rate = 0.0;
  std::optional<std::uint64_t> fault_seed;
  std::size_t fault_outages = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scenario") {
      scenario = next();
    } else if (arg == "--list-scenarios") {
      for (const auto& info : workload::scenario_registry()) {
        std::fprintf(stdout, "%-12s %s\n", info.name.c_str(),
                     info.summary.c_str());
      }
      return 0;
    } else if (arg == "--hostile-share") {
      hostile_share = cli::flag_value<double>(arg, next());
      if (hostile_share < 0.0 || hostile_share >= 1.0) {
        std::fprintf(stderr, "--hostile-share must be in [0, 1)\n");
        return 2;
      }
    } else if (arg == "--scale") {
      scale = cli::flag_value<double>(arg, next());
    } else if (arg == "--seed") {
      seed = cli::flag_value<std::uint64_t>(arg, next());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--ground-truth") {
      truth_path = next();
    } else if (arg == "--jlog-v2") {
      jlog_v2_path = next();
    } else if (arg == "--jlog-chunk-rows") {
      jlog_chunk_rows = cli::flag_value<std::uint32_t>(arg, next());
      if (jlog_chunk_rows == 0) {
        std::fprintf(stderr, "--jlog-chunk-rows must be positive\n");
        return 2;
      }
    } else if (arg == "--json-only") {
      json_only = true;
    } else if (arg == "--fault-rate") {
      fault_rate = cli::flag_value<double>(arg, next());
      if (fault_rate < 0.0 || fault_rate > 1.0) {
        std::fprintf(stderr, "--fault-rate must be in [0, 1]\n");
        return 2;
      }
    } else if (arg == "--fault-seed") {
      fault_seed = cli::flag_value<std::uint64_t>(arg, next());
    } else if (arg == "--fault-outages") {
      fault_outages = cli::flag_value<std::size_t>(arg, next());
      if (fault_outages > faults::FaultPlanConfig::max_outages_per_origin) {
        std::fprintf(stderr, "--fault-outages must be at most %zu\n",
                     faults::FaultPlanConfig::max_outages_per_origin);
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage();
      return 2;
    }
  }

  // Historical aliases for the two paper scenarios.
  if (scenario == "short") scenario = "short-term";
  if (scenario == "long") scenario = "long-term";

  workload::GeneratorConfig config;
  try {
    config = workload::scenario_by_name(scenario, scale, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s (try --list-scenarios)\n", e.what());
    return 2;
  }
  if (hostile_share >= 0.0) config.hostile.hostile_share = hostile_share;

  std::fprintf(stderr,
               "generating %s scenario at scale %g (seed %llu, hostile "
               "share %g)\n",
               scenario.c_str(), scale, static_cast<unsigned long long>(seed),
               config.hostile.hostile_share);
  workload::WorkloadGenerator generator(config);
  const auto workload = generator.generate();

  cdn::NetworkParams params;
  if (fault_rate > 0.0 || fault_outages > 0) {
    params.faults = faults::composite_fault_plan(
        fault_rate, fault_seed ? *fault_seed : faults::env_fault_seed(seed),
        static_cast<double>(fault_outages), workload.events);
    std::fprintf(stderr,
                 "fault injection on: rate %g, seed %llu, %zu outages/origin\n",
                 fault_rate,
                 static_cast<unsigned long long>(params.faults.seed),
                 fault_outages);
  }
  cdn::CdnNetwork network(generator.catalog().objects(), params);
  auto table = network.run(workload.events);
  if (json_only) table = table.select(table.json_rows());
  const auto resilience = network.total_resilience();
  if (resilience.any_activity()) {
    std::fputs(cdn::render_resilience(resilience).c_str(), stderr);
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  logs::LogWriter writer(out);
  for (std::size_t i = 0; i < table.size(); ++i)
    writer.write(table.record(static_cast<logs::LogTable::RowIndex>(i)));
  std::fprintf(stderr, "wrote %llu records to %s\n",
               static_cast<unsigned long long>(writer.written()),
               out_path.c_str());

  if (!jlog_v2_path.empty()) {
    try {
      shard::ShardWriterOptions v2_options;
      v2_options.chunk_rows = jlog_chunk_rows;
      shard::ShardWriter writer(jlog_v2_path, v2_options);
      writer.append(table);
      const auto stats = writer.finalize();
      std::fprintf(stderr,
                   "wrote chunk store sidecar to %s (%u chunks, %.1f MiB)\n",
                   jlog_v2_path.c_str(), stats.chunks,
                   static_cast<double>(stats.file_bytes) / (1 << 20));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "jlog-v2: %s\n", e.what());
      return 1;
    }
  }

  if (!truth_path.empty()) {
    // The sidecar speaks the log's identity vocabulary: client addresses are
    // pseudonymized through the same anonymizer the network logged with.
    try {
      const auto sidecar = oracle::make_sidecar(workload.truth, config,
                                                network.anonymizer());
      oracle::write_truth_file(truth_path, sidecar);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ground truth: %s\n", e.what());
      return 1;
    }
    std::fprintf(stderr,
                 "wrote ground truth to %s (%zu clients, %zu periodic flows, "
                 "%zu sessions, %zu attackers)\n",
                 truth_path.c_str(), workload.truth.clients.size(),
                 workload.truth.periodic_flows.size(),
                 workload.truth.sessions.size(),
                 workload.truth.attackers.size());
  }
  return 0;
}
