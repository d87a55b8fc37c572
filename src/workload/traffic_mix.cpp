#include "workload/traffic_mix.h"

#include <cmath>
#include <stdexcept>

#include "http/mime.h"
#include "stats/descriptive.h"

namespace jsoncdn::workload {

namespace {

double geo_interp(double a, double b, double t) {
  // Geometric interpolation keeps shares positive and models compounding
  // ecosystem growth; falls back to linear when an endpoint is zero.
  if (a <= 0.0 || b <= 0.0) return a + (b - a) * t;
  return a * std::pow(b / a, t);
}

// Position of quarter q in the span: 0 at the first quarter, 1 at the last.
double span_fraction(int q) {
  static_assert(GrowthConfig::n_quarters > 1);
  return static_cast<double>(q) /
         static_cast<double>(GrowthConfig::n_quarters - 1);
}

}  // namespace

PopulationShares interpolate_mix(int q) {
  if (q < 0 || q >= GrowthConfig::n_quarters)
    throw std::invalid_argument("interpolate_mix: quarter out of range");
  const double t = span_fraction(q);
  const auto& a = GrowthConfig::mix_2016;
  const auto& b = GrowthConfig::mix_2019;
  PopulationShares out;
  out.mobile_app = geo_interp(a.mobile_app, b.mobile_app, t);
  out.mobile_browser = geo_interp(a.mobile_browser, b.mobile_browser, t);
  out.desktop_browser = geo_interp(a.desktop_browser, b.desktop_browser, t);
  out.embedded = geo_interp(a.embedded, b.embedded, t);
  out.library = geo_interp(a.library, b.library, t);
  out.no_ua = geo_interp(a.no_ua, b.no_ua, t);
  out.garbage_ua = geo_interp(a.garbage_ua, b.garbage_ua, t);
  return out;
}

double json_size_log_shift_at(int q) {
  if (q < 0 || q >= GrowthConfig::n_quarters)
    throw std::invalid_argument("json_size_log_shift_at: quarter out of range");
  // Shifting the lognormal location by ln(s) scales every quantile (and the
  // mean) by s.
  return std::log(GrowthConfig::json_size_total_scale) * span_fraction(q);
}

std::vector<QuarterStats> simulate_growth(const GrowthConfig& config) {
  std::vector<QuarterStats> out;
  out.reserve(static_cast<std::size_t>(config.n_quarters));

  for (int q = 0; q < config.n_quarters; ++q) {
    GeneratorConfig gen;
    gen.seed = config.seed + static_cast<std::uint64_t>(q) * 7919;
    gen.duration_seconds = config.duration_seconds;
    gen.n_clients = static_cast<std::size_t>(
        std::llround(static_cast<double>(config.clients_per_quarter) *
                     std::pow(config.quarterly_traffic_growth, q)));
    gen.shares = interpolate_mix(q);
    gen.catalog.json_size_log_shift = json_size_log_shift_at(q);
    const double t = span_fraction(q);
    gen.browser_session.json_xhr_prob =
        config.browser_xhr_prob_2016 +
        (config.browser_xhr_prob_2019 - config.browser_xhr_prob_2016) * t;
    gen.unknown_app_like_share =
        config.unknown_app_like_2016 +
        (config.unknown_app_like_2019 - config.unknown_app_like_2016) * t;
    gen.app_webview_html_prob =
        config.webview_prob_2016 +
        (config.webview_prob_2019 - config.webview_prob_2016) * t;
    // Keep the per-quarter catalog small: the ratio is about traffic mix,
    // not catalog breadth.
    gen.catalog.domains_per_industry = 2;

    WorkloadGenerator generator(gen);
    const auto workload = generator.generate();
    const auto& objects = generator.catalog().objects();

    QuarterStats stats;
    stats.year = config.start_year +
                 (config.start_quarter - 1 + q) / 4;
    stats.quarter = (config.start_quarter - 1 + q) % 4 + 1;
    stats.label = std::to_string(stats.year) + "Q" +
                  std::to_string(stats.quarter);
    double json_bytes = 0.0;
    double html_bytes = 0.0;
    for (const auto& ev : workload.events) {
      const auto* obj = objects.find(ev.url);
      if (obj == nullptr) continue;
      if (obj->content == http::ContentClass::kJson) {
        ++stats.json_requests;
        json_bytes += static_cast<double>(obj->body_bytes);
      } else if (obj->content == http::ContentClass::kHtml) {
        ++stats.html_requests;
        html_bytes += static_cast<double>(obj->body_bytes);
      }
    }
    std::vector<double> json_object_sizes;
    for (const auto& obj : objects.objects()) {
      if (obj.content == http::ContentClass::kJson)
        json_object_sizes.push_back(static_cast<double>(obj.body_bytes));
    }
    if (!json_object_sizes.empty()) {
      stats.median_json_bytes =
          jsoncdn::stats::percentile(json_object_sizes, 0.5);
    }
    stats.json_html_ratio =
        stats.html_requests == 0
            ? 0.0
            : static_cast<double>(stats.json_requests) /
                  static_cast<double>(stats.html_requests);
    stats.mean_json_bytes =
        stats.json_requests == 0
            ? 0.0
            : json_bytes / static_cast<double>(stats.json_requests);
    stats.mean_html_bytes =
        stats.html_requests == 0
            ? 0.0
            : html_bytes / static_cast<double>(stats.html_requests);
    out.push_back(std::move(stats));
  }
  return out;
}

}  // namespace jsoncdn::workload
