// jsoncdn-validate — score the analyses against ground truth.
//
// File mode (grade one captured pair):
//   jsoncdn-validate --log FILE --truth FILE [--threads N] [--context N]
//
// Sweep mode (the conformance harness, end to end):
//   jsoncdn-validate --seed-sweep 1,7,1337 [--clients N] [--duration S]
//                    [--scale S] [--scenario NAME] [--hostile-share H]
//                    [--no-streaming] [--markdown]
//
// Overload experiment mode (flash crowd + scrapers, protected vs
// unprotected edge, graded against latency/hit-ratio bands):
//   jsoncdn-validate --overload [--seed N] [--scale S] [--clients N]
//                    [--hostile-share H] [--markdown]
//
// Detector-matrix mode (the period-detection portfolio, scenario × strategy,
// seed-swept and graded against the committed F1 bands):
//   jsoncdn-validate --detector-matrix [--seed-sweep S1,S2,...] [--scale S]
//                    [--clients N] [--duration S] [--threads N] [--markdown]
//
// Both modes print detector precision/recall/F1, n-gram accuracy next to
// its session-chain skyline, and the characterization marginal distances;
// sweep mode additionally runs the thread-count and batch-vs-streaming
// differential checks and exits non-zero on any band violation, so CI can
// gate on it directly. --markdown appends the EXPERIMENTS.md detector table.
// --detector NAME picks the period-detection strategy for file and sweep
// modes (--list-detectors enumerates them).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "core/period_detector.h"
#include "logs/csv.h"
#include "logs/table.h"
#include "logs/zerocopy.h"
#include "oracle/conformance.h"
#include "oracle/detector_matrix.h"
#include "shard/reader.h"
#include "oracle/ground_truth.h"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: jsoncdn-validate --log FILE --truth FILE [--threads N]\n"
      "                        [--context N] [--detector NAME]\n"
      "       jsoncdn-validate --seed-sweep S1,S2,... [--clients N]\n"
      "                        [--duration SECONDS] [--scale S]\n"
      "                        [--scenario NAME] [--hostile-share H]\n"
      "                        [--detector NAME] [--no-streaming] "
      "[--markdown]\n"
      "       jsoncdn-validate --detector-matrix [--seed-sweep S1,S2,...]\n"
      "                        [--scale S] [--clients N] [--duration S]\n"
      "                        [--threads N] [--markdown]\n"
      "       jsoncdn-validate --overload [--seed N] [--scale S]\n"
      "                        [--clients N] [--hostile-share H] "
      "[--markdown]\n"
      "       jsoncdn-validate --list-detectors\n");
}

std::vector<std::uint64_t> parse_seed_list(const std::string& arg) {
  std::vector<std::uint64_t> seeds;
  std::size_t start = 0;
  while (start <= arg.size()) {
    const auto comma = arg.find(',', start);
    const auto token = arg.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (token.empty()) {
      seeds.clear();
      return seeds;
    }
    seeds.push_back(jsoncdn::cli::flag_value<std::uint64_t>(
        "--seed-sweep", token.c_str()));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return seeds;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jsoncdn;

  std::string log_path;
  std::string truth_path;
  oracle::ConformanceConfig config;
  config.seeds.clear();
  oracle::OverloadExperimentConfig overload_config;
  bool overload = false;
  bool detector_matrix = false;
  std::uint64_t seed = 1;
  std::size_t threads = 0;
  bool markdown = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--log") {
      log_path = next();
    } else if (arg == "--truth") {
      truth_path = next();
    } else if (arg == "--seed-sweep") {
      config.seeds = parse_seed_list(next());
      if (config.seeds.empty()) {
        std::fprintf(stderr, "--seed-sweep needs a comma-separated list\n");
        return 2;
      }
    } else if (arg == "--overload") {
      overload = true;
    } else if (arg == "--detector-matrix") {
      detector_matrix = true;
    } else if (arg == "--detector") {
      const std::string name = next();
      try {
        config.detector = core::detector_strategy_from_name(name);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (arg == "--list-detectors") {
      for (const auto& info : core::detector_registry()) {
        std::fprintf(stdout, "%-16s %s\n", std::string(info.name).c_str(),
                     std::string(info.summary).c_str());
      }
      return 0;
    } else if (arg == "--seed") {
      seed = cli::flag_value<std::uint64_t>(arg, next());
    } else if (arg == "--scenario") {
      config.scenario = next();
    } else if (arg == "--hostile-share") {
      const double share = cli::flag_value<double>(arg, next());
      if (share < 0.0 || share >= 1.0) {
        std::fprintf(stderr, "--hostile-share must be in [0, 1)\n");
        return 2;
      }
      config.hostile_share = share;
      overload_config.hostile_share = share;
    } else if (arg == "--clients") {
      config.n_clients = cli::flag_value<std::size_t>(arg, next());
      overload_config.n_clients = config.n_clients;
    } else if (arg == "--duration") {
      config.duration_seconds = cli::flag_value<double>(arg, next());
      overload_config.duration_seconds = config.duration_seconds;
    } else if (arg == "--scale") {
      config.scale = cli::flag_value<double>(arg, next());
      overload_config.scale = config.scale;
    } else if (arg == "--threads") {
      threads = cli::flag_value<std::size_t>(arg, next());
      config.thread_counts = {threads};
    } else if (arg == "--context") {
      config.ngram_context = cli::flag_value<std::size_t>(arg, next());
    } else if (arg == "--no-streaming") {
      config.check_streaming = false;
    } else if (arg == "--markdown") {
      markdown = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage();
      return 2;
    }
  }

  try {
    if (detector_matrix) {
      oracle::DetectorMatrixConfig matrix;
      if (!config.seeds.empty()) matrix.seeds = config.seeds;
      if (config.scale > 0.0) matrix.scale = config.scale;
      if (config.duration_seconds > 0.0)
        matrix.duration_seconds = config.duration_seconds;
      if (config.n_clients > 0) matrix.n_clients = config.n_clients;
      matrix.threads = threads;
      const auto report = oracle::run_detector_matrix(matrix);
      std::fputs(oracle::render_detector_matrix(report).c_str(), stdout);
      if (markdown)
        std::fputs(oracle::render_detector_matrix_table(report).c_str(),
                   stdout);
      return report.all_passed() ? 0 : 1;
    }

    if (overload) {
      overload_config.seed = seed;
      const auto experiment =
          oracle::run_overload_experiment(overload_config);
      std::fputs(oracle::render_overload(experiment).c_str(), stdout);
      if (markdown)
        std::fputs(oracle::render_overload_table(experiment).c_str(), stdout);
      return experiment.passed() ? 0 : 1;
    }

    if (!config.seeds.empty()) {
      const auto report = oracle::run_conformance(config);
      std::fputs(oracle::render_conformance(report).c_str(), stdout);
      if (markdown) std::fputs(oracle::render_detector_table(report).c_str(),
                               stdout);
      return report.all_passed() ? 0 : 1;
    }

    if (log_path.empty() || truth_path.empty()) {
      usage();
      return 2;
    }
    logs::IngestReport ingest;
    // Zero-copy columnar ingest (or a direct .jlog v2 load — dispatched on
    // the leading magic): same rows in either format.
    const auto table =
        shard::load_table_auto(log_path, logs::IngestOptions{}, &ingest);
    if (table.empty()) {
      std::fprintf(stderr, "no records in %s\n", log_path.c_str());
      return 1;
    }
    if (ingest.malformed > 0) {
      std::fprintf(stderr, "warning: %llu malformed log line(s) skipped\n",
                   static_cast<unsigned long long>(ingest.malformed));
    }
    const auto truth = oracle::read_truth_file(truth_path);
    const auto json_rows = table.json_rows();
    const auto result =
        oracle::score_case(logs::TableView(table),
                           logs::TableView(table, json_rows), truth,
                           /*seed=*/0, config, threads);
    std::fputs(oracle::render_case(result).c_str(), stdout);
    if (markdown) {
      oracle::ConformanceReport report;
      report.cases.push_back(result);
      std::fputs(oracle::render_detector_table(report).c_str(), stdout);
    }
    return result.passed() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jsoncdn-validate: %s\n", e.what());
    return 1;
  }
}
