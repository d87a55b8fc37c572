// Oracle scorers: join analysis output against the ground-truth sidecar and
// grade it.
//
// Three scorers, one per analysis family:
//   - score_periodicity: precision / recall / F1 of the §5.1 detector over
//     the sidecar's labelled periodic flows, with per-flow period error;
//   - score_ngram: the §5.2 predictor's accuracy@K on the edge log next to
//     its *skyline* — the same protocol run on the true session chains the
//     generator intended — so the delta isolates what observing sessions
//     through the CDN costs;
//   - score_marginals: L1 distance of the characterization marginals
//     (device mix, population mix, industry coverage) from the generator's
//     configured / realized populations.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/characterization.h"
#include "core/ngram.h"
#include "core/periodicity.h"
#include "logs/table.h"
#include "oracle/ground_truth.h"

namespace jsoncdn::oracle {

// ---- Periodicity detector -------------------------------------------------

struct DetectorScore {
  std::size_t truth_flows = 0;     // labelled periodic flows in the sidecar
  std::size_t eligible_truth = 0;  // truth flows the analysis examined (the
                                   // rest fell to the >=10-requests /
                                   // >=10-clients eligibility filter)
  std::size_t analyzed_flows = 0;  // all client-object flows examined
  std::size_t true_positives = 0;  // detected with the right period
  std::size_t false_positives = 0; // detected where truth has no period (or
                                   // the wrong one)
  std::size_t false_negatives = 0; // eligible truth flows not recovered
  // Detections on flows of labeled attackers (sidecar `attacker` rows).
  // Neither TP nor FP: rate-limited bots genuinely emit periodic cadence
  // (a scraper re-walking a URL space revisits each URL every T seconds),
  // but the truth only models *intended* periodic flows, so the oracle can
  // call these detections neither right nor wrong. Zero on benign runs.
  std::size_t hostile_detections = 0;
  // |detected - true| / true over the true positives.
  std::vector<double> period_rel_errors;

  [[nodiscard]] double precision() const noexcept;
  [[nodiscard]] double recall() const noexcept;  // over eligible truth flows
  [[nodiscard]] double f1() const noexcept;
  // Share of truth flows the eligibility filter let through at all.
  [[nodiscard]] double coverage() const noexcept;
  [[nodiscard]] double max_period_rel_error() const noexcept;
};

// A detected period equals the true one within the detector's own
// tolerance, core::DetectorParams::period_match_tolerance. A detection whose
// period misses the truth by more counts as FP *and* FN.
[[nodiscard]] DetectorScore score_periodicity(
    const core::PeriodicityReport& report, const TruthSidecar& truth);

// ---- Ngram predictor ------------------------------------------------------

struct NgramScore {
  core::NgramAccuracy measured;  // evaluate_ngram over the edge log
  core::NgramAccuracy skyline;   // same protocol over true session chains
  // skyline accuracy minus measured accuracy per K (positive = the log path
  // lost information relative to the intended chains).
  [[nodiscard]] std::map<std::size_t, double> delta() const;
};

// `json` is the JSON-row view of the log (the paper's protocol). The skyline
// run honours config.context_len, the K values and core::is_train_client's
// split; its clustered variant clusters through the sidecar's template map
// (the ideal clustering) with core::cluster_url as fallback for off-graph
// URLs.
[[nodiscard]] NgramScore score_ngram(const logs::TableView& json,
                                     const TruthSidecar& truth,
                                     const core::NgramEvalConfig& config);

// ---- Characterization marginals ------------------------------------------

struct MarginalScore {
  // L1 distance between the UA-classifier's device request shares and the
  // truth device (request-weighted, joined per client).
  double device_request_l1 = 0.0;
  // L1 distance between the realized client-class population and the
  // generator's configured shares (both normalized).
  double class_population_l1 = 0.0;
  // L1 distance between the per-industry share of distinct domains seen in
  // the log and the configured uniform industry assignment.
  double industry_domain_l1 = 0.0;
  std::size_t joined_requests = 0;    // records matched to a truth client
  std::size_t unmatched_requests = 0; // records with no truth client
  // Records keyed to a labeled attacker. Hostile traffic is excluded from
  // both sides of the marginal comparison: the marginals grade recovery of
  // the benign population parameters, and the sidecar labels make the
  // exclusion exact. Zero for benign sidecars.
  std::size_t hostile_requests = 0;
};

// `view` must be the rows `source` was computed over.
[[nodiscard]] MarginalScore score_marginals(const logs::TableView& view,
                                            const core::SourceBreakdown& source,
                                            const TruthSidecar& truth);

}  // namespace jsoncdn::oracle
