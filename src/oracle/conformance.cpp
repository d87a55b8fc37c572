#include "oracle/conformance.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "cdn/network.h"
#include "core/characterization.h"
#include "core/ngram.h"
#include "core/periodicity.h"
#include "oracle/metamorphic.h"
#include "stream/streaming_study.h"
#include "workload/scenario.h"

namespace jsoncdn::oracle {

namespace {

core::PeriodicityConfig periodicity_config(const ConformanceConfig& config,
                                           std::size_t threads) {
  core::PeriodicityConfig out;
  out.strategy = config.detector;
  out.threads = threads;
  return out;
}

core::NgramEvalConfig ngram_config(const ConformanceConfig& config,
                                   bool clustered, std::size_t threads) {
  core::NgramEvalConfig out;
  out.context_len = config.ngram_context;
  out.clustered = clustered;
  out.threads = threads;
  return out;
}

void check_band(std::vector<std::string>& failures, bool ok,
                const std::string& what) {
  if (!ok) failures.push_back(what);
}

std::string fmt(double value) {
  std::ostringstream out;
  out.precision(4);
  out << value;
  return out.str();
}

// The streaming study mirrors the batch pipeline's record scoping: status is
// a delivery-health view over the whole stream, while methods, cacheability,
// and the device breakdown are the paper's JSON-only analyses.
bool same_counters(const stream::StreamingSummary& streaming,
                   const logs::TableView& full, const logs::TableView& json,
                   std::size_t threads) {
  const auto methods = core::characterize_methods(json, threads);
  const auto cache = core::characterize_cacheability(json, threads);
  const auto status = core::characterize_status(full, threads);
  const auto source = core::characterize_source(json, threads);
  const auto& sm = streaming.methods;
  const auto& sc = streaming.cacheability;
  const auto& ss = streaming.status;
  if (sm.get != methods.get || sm.post != methods.post ||
      sm.other != methods.other || sm.total != methods.total) {
    return false;
  }
  if (sc.cacheable != cache.cacheable || sc.uncacheable != cache.uncacheable ||
      sc.hits != cache.hits) {
    return false;
  }
  if (ss.total != status.total || ss.ok_2xx != status.ok_2xx ||
      ss.redirect_3xx != status.redirect_3xx ||
      ss.client_error_4xx != status.client_error_4xx ||
      ss.server_error_5xx != status.server_error_5xx ||
      ss.gateway_timeout_504 != status.gateway_timeout_504 ||
      ss.stale_served != status.stale_served ||
      ss.error_cache_status != status.error_cache_status ||
      ss.shed != status.shed || ss.throttled != status.throttled) {
    return false;
  }
  // Request-side device counters are exact in the streaming study; the
  // UA-string side is HLL-estimated, so only the request side must match.
  return streaming.source.requests_by_device == source.requests_by_device &&
         streaming.source.total_requests == source.total_requests &&
         streaming.source.browser_requests == source.browser_requests &&
         streaming.source.missing_ua_requests == source.missing_ua_requests;
}

}  // namespace

GeneratedCase generate_case(std::uint64_t seed,
                            const ConformanceConfig& config) {
  auto wconfig =
      workload::scenario_by_name(config.scenario, config.scale, seed);
  if (config.hostile_share >= 0.0)
    wconfig.hostile.hostile_share = config.hostile_share;
  if (config.duration_seconds > 0.0)
    wconfig.duration_seconds = config.duration_seconds;
  if (config.n_clients > 0) wconfig.n_clients = config.n_clients;

  const workload::WorkloadGenerator generator(wconfig);
  const auto workload = generator.generate();

  cdn::CdnNetwork network(generator.catalog().objects(), cdn::NetworkParams{});
  GeneratedCase out;
  out.seed = seed;
  out.table = network.run(workload.events);
  out.json_rows = out.table.json_rows();
  out.truth = make_sidecar(workload.truth, wconfig, network.anonymizer());
  return out;
}

CaseResult score_case(const logs::TableView& full, const logs::TableView& json,
                      const TruthSidecar& truth, std::uint64_t seed,
                      const ConformanceConfig& config, std::size_t threads) {
  CaseResult result;
  result.seed = seed;

  const auto pconfig = periodicity_config(config, threads);
  const auto report = core::analyze_periodicity(json, pconfig);
  result.detector = score_periodicity(report, truth);

  result.ngram_raw = score_ngram(json, truth, ngram_config(config, false,
                                                           threads));
  result.ngram_clustered =
      score_ngram(json, truth, ngram_config(config, true, threads));

  const auto source = core::characterize_source(full, threads);
  result.marginals = score_marginals(full, source, truth);

  constexpr ConformanceTolerances tol;
  auto& failures = result.failures;
  const auto& det = result.detector;
  check_band(failures, det.precision() >= tol.min_detector_precision,
             "detector precision " + fmt(det.precision()) + " < " +
                 fmt(tol.min_detector_precision));
  check_band(failures, det.recall() >= tol.min_detector_recall,
             "detector recall " + fmt(det.recall()) + " < " +
                 fmt(tol.min_detector_recall));
  check_band(failures, det.f1() >= tol.min_detector_f1,
             "detector F1 " + fmt(det.f1()) + " < " + fmt(tol.min_detector_f1));
  check_band(failures,
             det.max_period_rel_error() <= tol.max_period_rel_error,
             "period error " + fmt(det.max_period_rel_error()) + " > " +
                 fmt(tol.max_period_rel_error));

  const double measured_top1 = [&] {
    const auto it = result.ngram_raw.measured.accuracy_at.find(1);
    return it == result.ngram_raw.measured.accuracy_at.end() ? 0.0
                                                             : it->second;
  }();
  const double skyline_top1 = [&] {
    const auto it = result.ngram_raw.skyline.accuracy_at.find(1);
    return it == result.ngram_raw.skyline.accuracy_at.end() ? 0.0 : it->second;
  }();
  check_band(failures, measured_top1 >= tol.min_measured_top1,
             "ngram accuracy@1 " + fmt(measured_top1) + " < " +
                 fmt(tol.min_measured_top1));
  check_band(failures, skyline_top1 >= tol.min_skyline_top1,
             "ngram skyline@1 " + fmt(skyline_top1) + " < " +
                 fmt(tol.min_skyline_top1));
  check_band(failures,
             skyline_top1 - measured_top1 <= tol.max_skyline_gap_top1,
             "ngram skyline gap " + fmt(skyline_top1 - measured_top1) + " > " +
                 fmt(tol.max_skyline_gap_top1));

  const auto& marg = result.marginals;
  check_band(failures, marg.device_request_l1 <= tol.max_device_l1,
             "device marginal L1 " + fmt(marg.device_request_l1) + " > " +
                 fmt(tol.max_device_l1));
  check_band(failures, marg.class_population_l1 <= tol.max_class_l1,
             "class marginal L1 " + fmt(marg.class_population_l1) + " > " +
                 fmt(tol.max_class_l1));
  check_band(failures, marg.industry_domain_l1 <= tol.max_industry_l1,
             "industry marginal L1 " + fmt(marg.industry_domain_l1) + " > " +
                 fmt(tol.max_industry_l1));
  return result;
}

bool ConformanceReport::all_passed() const noexcept {
  for (const auto& result : cases) {
    if (!result.passed()) return false;
  }
  return true;
}

std::size_t ConformanceReport::total_failures() const noexcept {
  std::size_t n = 0;
  for (const auto& result : cases) n += result.failures.size();
  return n;
}

ConformanceReport run_conformance(const ConformanceConfig& config) {
  ConformanceReport report;
  const std::size_t score_threads =
      config.thread_counts.empty() ? 0 : config.thread_counts.front();
  for (const auto seed : config.seeds) {
    const auto generated = generate_case(seed, config);
    const logs::TableView full = generated.full();
    const logs::TableView json = generated.json();
    auto result =
        score_case(full, json, generated.truth, seed, config, score_threads);

    // Thread-count differential: labels and accuracies must be bit-identical
    // under every swept thread count.
    const auto reference_labels = detection_labels(
        core::analyze_periodicity(json,
                                  periodicity_config(config, score_threads)));
    const auto reference_ngram = core::evaluate_ngram(
        json, ngram_config(config, false, score_threads));
    for (std::size_t i = 1; i < config.thread_counts.size(); ++i) {
      const auto threads = config.thread_counts[i];
      const auto labels = detection_labels(core::analyze_periodicity(
          json, periodicity_config(config, threads)));
      const auto accuracy = core::evaluate_ngram(
          json, ngram_config(config, false, threads));
      if (labels != reference_labels ||
          accuracy.accuracy_at != reference_ngram.accuracy_at) {
        result.thread_invariant = false;
        result.failures.push_back(
            "thread differential: results differ between " +
            std::to_string(score_threads) + " and " + std::to_string(threads) +
            " threads");
        break;
      }
    }

    // Batch-vs-streaming differential on the exact counters.
    if (config.check_streaming) {
      stream::StreamingStudy study;
      std::vector<logs::LogTable::RowIndex> rows(generated.table.size());
      std::iota(rows.begin(), rows.end(), logs::LogTable::RowIndex{0});
      study.ingest(generated.table, rows);
      if (!same_counters(study.summary(), full, json, score_threads)) {
        result.streaming_consistent = false;
        result.failures.push_back(
            "streaming differential: exact counters diverge from batch");
      }
    }
    report.cases.push_back(std::move(result));
  }
  return report;
}

std::string render_case(const CaseResult& result) {
  std::ostringstream out;
  out.precision(4);
  const auto& det = result.detector;
  out << "seed " << result.seed << (result.passed() ? "  [pass]" : "  [FAIL]")
      << "\n";
  out << "  detector: P " << det.precision() << "  R " << det.recall()
      << "  F1 " << det.f1() << "  (TP " << det.true_positives << ", FP "
      << det.false_positives << ", FN " << det.false_negatives;
  if (det.hostile_detections > 0)
    out << ", hostile " << det.hostile_detections;
  out << "; eligible " << det.eligible_truth << "/" << det.truth_flows
      << " truth flows, max period err " << det.max_period_rel_error()
      << ")\n";
  auto acc = [](const core::NgramAccuracy& a, std::size_t k) {
    const auto it = a.accuracy_at.find(k);
    return it == a.accuracy_at.end() ? 0.0 : it->second;
  };
  out << "  ngram raw: log@1 " << acc(result.ngram_raw.measured, 1)
      << "  skyline@1 " << acc(result.ngram_raw.skyline, 1) << "  log@10 "
      << acc(result.ngram_raw.measured, 10) << "\n";
  out << "  ngram clustered: log@1 " << acc(result.ngram_clustered.measured, 1)
      << "  skyline@1 " << acc(result.ngram_clustered.skyline, 1) << "\n";
  const auto& marg = result.marginals;
  out << "  marginals: device L1 " << marg.device_request_l1 << "  class L1 "
      << marg.class_population_l1 << "  industry L1 "
      << marg.industry_domain_l1 << "  (joined " << marg.joined_requests
      << ", unmatched " << marg.unmatched_requests;
  if (marg.hostile_requests > 0)
    out << ", hostile " << marg.hostile_requests;
  out << ")\n";
  out << "  differentials: threads "
      << (result.thread_invariant ? "identical" : "DIVERGED") << ", streaming "
      << (result.streaming_consistent ? "identical" : "DIVERGED") << "\n";
  for (const auto& failure : result.failures) {
    out << "  band violation: " << failure << "\n";
  }
  return out.str();
}

std::string render_conformance(const ConformanceReport& report) {
  std::ostringstream out;
  out << "== Conformance sweep (" << report.cases.size() << " seeds) ==\n";
  for (const auto& result : report.cases) out << render_case(result);
  out << (report.all_passed()
              ? "all seeds within bands\n"
              : std::to_string(report.total_failures()) +
                    " band violation(s)\n");
  return out.str();
}

OverloadExperiment run_overload_experiment(
    const OverloadExperimentConfig& config) {
  auto wconfig = workload::flash_crowd_scenario(config.scale, config.seed);
  if (config.hostile_share >= 0.0)
    wconfig.hostile.hostile_share = config.hostile_share;
  if (config.duration_seconds > 0.0)
    wconfig.duration_seconds = config.duration_seconds;
  if (config.n_clients > 0) wconfig.n_clients = config.n_clients;

  const workload::WorkloadGenerator generator(wconfig);
  const auto workload = generator.generate();

  const auto run_arm = [&](cdn::OverloadParams params) {
    // Both arms share the edge sizing; only the protections differ.
    params.concurrency = config.concurrency;
    params.service_floor_seconds = config.service_floor_seconds;
    cdn::NetworkParams network_params;
    network_params.edge.overload = params;
    cdn::CdnNetwork network(generator.catalog().objects(), network_params);
    (void)network.run(workload.events);

    OverloadArm arm;
    arm.classes = network.total_two_class();
    arm.resilience = network.total_resilience();
    arm.human_p99 = arm.classes.human.latency_summary().p99;
    arm.human_hit_ratio = arm.classes.human.hit_ratio();
    arm.human_rejected_share = arm.classes.human.rejected_share();
    arm.machine_p99 = arm.classes.machine.latency_summary().p99;
    arm.machine_rejected_share = arm.classes.machine.rejected_share();
    return arm;
  };

  OverloadExperiment out;
  out.seed = config.seed;
  out.protected_arm = run_arm(cdn::OverloadParams::protected_defaults());
  out.unprotected_arm = run_arm(cdn::OverloadParams::unprotected_defaults());

  auto& failures = out.failures;
  const auto& prot = out.protected_arm;
  const auto& unprot = out.unprotected_arm;
  check_band(failures, prot.human_p99 <= config.max_human_p99_seconds,
             "protected human p99 " + fmt(prot.human_p99) + " s > " +
                 fmt(config.max_human_p99_seconds) + " s");
  check_band(failures, prot.human_hit_ratio >= config.min_human_hit_ratio,
             "protected human hit ratio " + fmt(prot.human_hit_ratio) +
                 " < " + fmt(config.min_human_hit_ratio));
  check_band(failures,
             prot.human_rejected_share <= config.max_human_rejected_share,
             "protected human rejected share " +
                 fmt(prot.human_rejected_share) + " > " +
                 fmt(config.max_human_rejected_share));
  // The whole point of the protections: the same traffic through an
  // unprotected edge must visibly collapse.
  check_band(failures, unprot.human_p99 > config.max_human_p99_seconds,
             "unprotected human p99 " + fmt(unprot.human_p99) +
                 " s stayed within the protected band — no overload "
                 "materialized");
  check_band(
      failures,
      unprot.human_p99 >=
          config.min_collapse_factor * std::max(prot.human_p99, 1e-9),
      "unprotected human p99 " + fmt(unprot.human_p99) + " s is not " +
          fmt(config.min_collapse_factor) + "x the protected " +
          fmt(prot.human_p99) + " s");
  return out;
}

namespace {

std::string render_arm(const char* name, const OverloadArm& arm) {
  std::ostringstream out;
  out.precision(4);
  out << "  " << name << ": human p99 " << arm.human_p99 << " s, hit ratio "
      << arm.human_hit_ratio << ", rejected " << arm.human_rejected_share
      << "  |  machine p99 " << arm.machine_p99 << " s, rejected "
      << arm.machine_rejected_share << "\n";
  out << "    rejections: " << arm.resilience.shed_queue_full
      << " shed (queue full), " << arm.resilience.shed_overload
      << " shed (overload), " << arm.resilience.throttled << " throttled\n";
  return out.str();
}

}  // namespace

std::string render_overload(const OverloadExperiment& experiment) {
  std::ostringstream out;
  out << "== Overload experiment (flash crowd + scrapers, seed "
      << experiment.seed << ") =="
      << (experiment.passed() ? "  [pass]" : "  [FAIL]") << "\n";
  out << render_arm("protected  ", experiment.protected_arm);
  out << render_arm("unprotected", experiment.unprotected_arm);
  for (const auto& failure : experiment.failures) {
    out << "  band violation: " << failure << "\n";
  }
  return out.str();
}

std::string render_overload_table(const OverloadExperiment& experiment) {
  std::ostringstream out;
  out.precision(3);
  out << "| arm | human p99 (s) | human hit ratio | human rejected | "
         "machine rejected | shed | throttled |\n";
  out << "|-----|--------------:|----------------:|---------------:|"
         "-----------------:|-----:|----------:|\n";
  const auto row = [&](const char* name, const OverloadArm& arm) {
    out << "| " << name << " | " << arm.human_p99 << " | "
        << arm.human_hit_ratio << " | " << arm.human_rejected_share << " | "
        << arm.machine_rejected_share << " | "
        << arm.resilience.shed_queue_full + arm.resilience.shed_overload
        << " | " << arm.resilience.throttled << " |\n";
  };
  row("protected", experiment.protected_arm);
  row("unprotected", experiment.unprotected_arm);
  return out.str();
}

std::string render_detector_table(const ConformanceReport& report) {
  std::ostringstream out;
  out.precision(3);
  out << "| seed | precision | recall | F1 | max period err | device L1 | "
         "class L1 | industry L1 |\n";
  out << "|-----:|----------:|-------:|---:|---------------:|----------:|"
         "---------:|------------:|\n";
  for (const auto& result : report.cases) {
    const auto& det = result.detector;
    out << "| " << result.seed << " | " << det.precision() << " | "
        << det.recall() << " | " << det.f1() << " | "
        << det.max_period_rel_error() << " | "
        << result.marginals.device_request_l1 << " | "
        << result.marginals.class_population_l1 << " | "
        << result.marginals.industry_domain_l1 << " |\n";
  }
  return out.str();
}

}  // namespace jsoncdn::oracle
