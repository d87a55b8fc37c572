// Streaming-vs-batch validation harness: runs the exact batch analyses over
// a materialized dataset and reports the observed sketch error next to each
// sketch's configured bound — the accuracy check the paper's production
// infrastructure could never run, because it never had the exact answer.
//
// Used by tests (assert observed <= bound on seeded synthetic streams) and
// by EXPERIMENTS.md (the streaming-accuracy table comes from this report).
#pragma once

#include <string>
#include <vector>

#include "logs/table.h"
#include "stream/streaming_study.h"

namespace jsoncdn::stream {

struct ValidationReport {
  // --- Cardinalities (HLL vs exact hash-set counts) -----------------------
  std::size_t exact_urls = 0;
  std::size_t exact_clients = 0;
  std::size_t exact_domains = 0;
  double url_cardinality_error = 0.0;     // |est - exact| / exact
  double client_cardinality_error = 0.0;
  double domain_cardinality_error = 0.0;
  double hll_error_bound = 0.0;           // 3 sigma of the configured HLL

  // --- Heavy hitters (Space-Saving/CMS vs exact URL counts) ---------------
  std::size_t topk_checked = 0;       // exact top-K URLs examined
  std::size_t topk_found = 0;         // of those, present in the sketch top
  double topk_max_count_error = 0.0;  // max |est - exact| over found keys
  double heavy_hitter_error_bound = 0.0;  // N / heavy_hitters

  // --- Size quantiles (sketch vs exact percentiles) -----------------------
  double quantile_max_rel_error = 0.0;  // max over json/html p25..p99
  double quantile_error_bound = 0.0;    // configured alpha

  // --- Exact-counter cross-check (must agree bit for bit) -----------------
  bool counters_identical = false;  // methods, cacheability, device counts

  // --- Triage recall ------------------------------------------------------
  std::size_t eligible_flows = 0;   // object flows passing the paper filter
  std::size_t candidate_flows = 0;  // triage candidates
  std::size_t eligible_missed = 0;  // eligible flows absent from candidates

  [[nodiscard]] bool within_bounds() const noexcept;
};

// Compares `summary` (built over exactly the rows of `exact`) against the
// batch pipeline. `top_k` bounds the heavy-hitter check.
[[nodiscard]] ValidationReport validate_streaming(
    const logs::LogTable& exact, const StreamingSummary& summary,
    std::size_t top_k = 20);

[[nodiscard]] std::string render_validation(const ValidationReport& report);

}  // namespace jsoncdn::stream
