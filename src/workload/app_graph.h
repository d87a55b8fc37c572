// Per-application request dependency graph — the generative model behind the
// paper's §5.2 observation that "a JSON request can predict a subsequent
// JSON request with about 70% accuracy".
//
// An app is modelled as a first-order Markov chain over endpoint *templates*
// (the clustered-URL level). Sessions start at a manifest endpoint (the
// Table 1 pattern: a stories manifest referencing articles), then walk the
// chain. Parameterized templates ("/article/{id}") instantiate a concrete id
// from a Zipf distribution, so raw-URL transitions are strictly less
// predictable than template transitions — exactly the gap between the
// "Actual URLs" and "Clustered URLs" columns of Table 3.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "http/method.h"
#include "stats/distributions.h"
#include "stats/rng.h"
#include "workload/catalog.h"

namespace jsoncdn::workload {

// Every app has the same shape; only its JSON sizes follow the catalog's
// Fig. 1 shift.
struct AppGraphParams {
  // Templates, including the manifest.
  static constexpr std::size_t n_endpoints = 20;
  // Share of templates with an {id}.
  static constexpr double parameterized_share = 0.5;
  // Distinct ids per parameterized template, and their popularity skew.
  static constexpr std::size_t id_space = 40;
  static constexpr double id_zipf_s = 1.3;
  // Mass of the most likely next template, uniform in [lo, hi).
  static constexpr double top_transition_lo = 0.55;
  static constexpr double top_transition_hi = 0.75;
  // The rest of each row's mass splits between a geometric "mid" group of
  // likely follow-ups and a flat tail over everything else. The three knobs
  // shape Table 3's accuracy curve: top-1 ~ mean(top bounds), top-5 adds the
  // mid group, top-10 only nibbles at the flat tail.
  static constexpr std::size_t mid_targets = 4;
  static constexpr double mid_share = 0.55;  // of the non-top mass
  // Geometric decay inside the mid group.
  static constexpr double transition_decay = 0.55;
  // Share of templates that are POSTs.
  static constexpr double post_endpoint_share = 0.09;
  double json_size_log_shift = 0.0;   // see CatalogConfig::json_size_log_shift
};

class AppGraph {
 public:
  // Builds the graph for `domain`, registering every instantiable URL in
  // `catalog`. Deterministic given (params, rng).
  AppGraph(const DomainSpec& domain, ObjectCatalog& catalog,
           const AppGraphParams& params, stats::Rng rng);

  [[nodiscard]] std::size_t endpoint_count() const noexcept {
    return endpoints_.size();
  }
  [[nodiscard]] std::size_t manifest() const noexcept { return 0; }
  [[nodiscard]] const std::string& domain() const noexcept { return domain_; }

  // Samples the next template index given the current one.
  [[nodiscard]] std::size_t next_template(std::size_t current,
                                          stats::Rng& rng) const;

  // Samples a concrete URL for a template (fixed URL, or Zipf id draw).
  [[nodiscard]] const std::string& instantiate(std::size_t tmpl,
                                               stats::Rng& rng) const;

  [[nodiscard]] http::Method method_of(std::size_t tmpl) const;
  [[nodiscard]] bool is_parameterized(std::size_t tmpl) const;
  // All concrete URLs a template can produce.
  [[nodiscard]] const std::vector<std::string>& urls_of(
      std::size_t tmpl) const;
  [[nodiscard]] const std::vector<std::vector<double>>& transitions()
      const noexcept {
    return transitions_;
  }

  // Expected top-1 accuracy of an oracle predictor at template level: the
  // stationary-weighted mean of each row's max transition probability.
  // Tests compare the trained ngram model against this ceiling.
  [[nodiscard]] double oracle_top1_template_accuracy() const;

 private:
  struct Endpoint {
    std::string path_base;
    bool parameterized = false;
    http::Method method = http::Method::kGet;
    std::vector<std::string> urls;    // 1 or id_space entries
    std::vector<double> id_weights;   // Zipf pmf when parameterized
  };

  std::string domain_;
  std::vector<Endpoint> endpoints_;
  std::vector<std::vector<double>> transitions_;  // row-stochastic
};

}  // namespace jsoncdn::workload
