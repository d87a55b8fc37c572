// Longitudinal content-type mix model behind Fig. 1 (JSON:HTML request ratio
// on the CDN, 2016 -> 2019) and the §4 note that mean JSON response size
// shrank ~28% over the same span.
//
// The paper attributes the shift to the app ecosystem: native mobile and
// embedded apps (pure JSON consumers) displacing browser page views
// (HTML + subresources), and payloads slimming as APIs mature. We model
// exactly those drivers: per quarter, the client population mix interpolates
// from a 2016 browser-heavy ecosystem to the 2019 app-heavy one observed in
// the paper, and the JSON size model shifts downward. Each quarter is then
// *simulated* — the ratio is measured from generated traffic, not computed
// in closed form.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/generator.h"

namespace jsoncdn::workload {

// fig1_json_growth varies the population; the span and the 2016 and 2019
// ecosystems are constants (DESIGN §13).
struct GrowthConfig {
  static constexpr std::uint64_t seed = 7;
  static constexpr int start_year = 2016;
  static constexpr int start_quarter = 1;  // 1-based
  static constexpr int n_quarters = 15;    // 2016Q1 .. 2019Q3 inclusive
  std::size_t clients_per_quarter = 1200;
  static constexpr double duration_seconds = 600.0;
  // Ecosystem endpoints (interpolated geometrically per quarter).
  static constexpr PopulationShares mix_2016{0.07, 0.15, 0.43, 0.03,
                                             0.05, 0.23, 0.04};
  static constexpr PopulationShares mix_2019{0.50, 0.06, 0.08, 0.12,
                                             0.03, 0.165, 0.03};
  // Total multiplicative change of mean JSON body size over the span
  // (0.72 == the paper's -28%).
  static constexpr double json_size_total_scale = 0.72;
  // View/data separation grows over the span (Section 2.2): pages fire more
  // JSON XHRs, unknown-UA traffic shifts from scripts to apps, hybrid-app
  // webviews fade as apps go API-only.
  static constexpr double browser_xhr_prob_2016 = 0.15;
  static constexpr double browser_xhr_prob_2019 = 0.80;
  static constexpr double unknown_app_like_2016 = 0.20;
  static constexpr double unknown_app_like_2019 = 0.75;
  static constexpr double webview_prob_2016 = 0.65;
  static constexpr double webview_prob_2019 = 0.30;
  // CDN-wide request volume index relative to 2016Q1 (traffic grows).
  static constexpr double quarterly_traffic_growth = 1.05;
};

struct QuarterStats {
  int year = 2016;
  int quarter = 1;
  std::string label;            // "2016Q1"
  std::uint64_t json_requests = 0;
  std::uint64_t html_requests = 0;
  double json_html_ratio = 0.0;
  double mean_json_bytes = 0.0;
  double mean_html_bytes = 0.0;
  // Catalog-level (object-weighted) median JSON body size. The
  // request-weighted mean confounds the size trend with the traffic-mix
  // trend (telemetry acks vs API payloads); the object median isolates
  // "JSON responses got smaller".
  double median_json_bytes = 0.0;
};

// Population mix + size shift for quarter q in [0, GrowthConfig::n_quarters).
[[nodiscard]] PopulationShares interpolate_mix(int q);
[[nodiscard]] double json_size_log_shift_at(int q);

// Simulates every quarter and reports the Fig. 1 series.
[[nodiscard]] std::vector<QuarterStats> simulate_growth(
    const GrowthConfig& config);

}  // namespace jsoncdn::workload
