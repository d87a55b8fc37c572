#include "stream/validate.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <span>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/characterization.h"
#include "http/mime.h"
#include "stats/descriptive.h"

namespace jsoncdn::stream {

namespace {

double rel_error(double estimate, double exact) {
  if (exact == 0.0) return estimate == 0.0 ? 0.0 : 1.0;
  return std::abs(estimate - exact) / exact;
}

// Exact quantile under the sketch's rank convention (nearest rank of
// q * (n - 1), no interpolation), so the comparison exercises exactly the
// guarantee DDSketch makes.
double exact_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::llround(q * static_cast<double>(sorted.size() - 1)));
  return sorted[std::min(rank, sorted.size() - 1)];
}

// Exact number of distinct symbols `sym_of(row)` takes over `rows`.
template <typename SymOf>
std::size_t distinct_symbols(std::span<const logs::LogTable::RowIndex> rows,
                             std::size_t dictionary_size,
                             const SymOf& sym_of) {
  std::vector<char> seen(dictionary_size, 0);
  std::size_t distinct = 0;
  for (const auto row : rows) {
    char& flag = seen[sym_of(row)];
    distinct += flag == 0 ? 1 : 0;
    flag = 1;
  }
  return distinct;
}

}  // namespace

bool ValidationReport::within_bounds() const noexcept {
  // The 1.05 slack absorbs floating-point rounding in the bucket-midpoint
  // math; the statistical bounds themselves are not relaxed.
  return url_cardinality_error <= hll_error_bound &&
         client_cardinality_error <= hll_error_bound &&
         domain_cardinality_error <= hll_error_bound &&
         topk_found == topk_checked &&
         topk_max_count_error <= heavy_hitter_error_bound &&
         quantile_max_rel_error <= quantile_error_bound * 1.05 &&
         counters_identical;
}

ValidationReport validate_streaming(const logs::LogTable& exact,
                                    const StreamingSummary& summary,
                                    std::size_t top_k) {
  ValidationReport report;
  const auto json_rows = exact.json_rows();
  const logs::TableView json(exact, json_rows);

  // --- Cardinalities ------------------------------------------------------
  report.exact_urls =
      distinct_symbols(json_rows, exact.urls().size(),
                       [&](auto row) { return exact.url_sym(row); });
  report.exact_clients =
      distinct_symbols(json_rows, exact.client_keys().size(),
                       [&](auto row) { return exact.client_sym(row); });
  report.exact_domains =
      distinct_symbols(json_rows, exact.domains().size(),
                       [&](auto row) { return exact.domain_sym(row); });
  report.url_cardinality_error =
      rel_error(summary.distinct_urls, static_cast<double>(report.exact_urls));
  report.client_cardinality_error = rel_error(
      summary.distinct_clients, static_cast<double>(report.exact_clients));
  report.domain_cardinality_error = rel_error(
      summary.distinct_domains, static_cast<double>(report.exact_domains));
  report.hll_error_bound = 3.0 * summary.hll_standard_error;

  // --- Heavy hitters ------------------------------------------------------
  std::unordered_map<std::string_view, std::uint64_t> exact_counts;
  for (const auto row : json_rows) ++exact_counts[exact.url(row)];
  std::vector<std::pair<std::string_view, std::uint64_t>> ranked(
      exact_counts.begin(), exact_counts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::unordered_map<std::string_view, const HeavyHitter*> sketch_top;
  for (const auto& hh : summary.top_urls) sketch_top.emplace(hh.key, &hh);
  report.heavy_hitter_error_bound = summary.heavy_hitter_error_bound;
  for (std::size_t i = 0; i < ranked.size() && i < top_k; ++i) {
    const auto [url, count] = ranked[i];
    ++report.topk_checked;
    const auto it = sketch_top.find(url);
    if (it == sketch_top.end()) continue;
    ++report.topk_found;
    report.topk_max_count_error =
        std::max(report.topk_max_count_error,
                 std::abs(static_cast<double>(it->second->count) -
                          static_cast<double>(count)));
  }

  // --- Size quantiles -----------------------------------------------------
  std::vector<double> json_sizes;
  std::vector<double> html_sizes;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const auto row = static_cast<logs::LogTable::RowIndex>(i);
    const auto content = http::classify_content(exact.content_type(row));
    const auto bytes = static_cast<double>(exact.response_bytes(row));
    if (content == http::ContentClass::kJson)
      json_sizes.push_back(bytes);
    else if (content == http::ContentClass::kHtml)
      html_sizes.push_back(bytes);
  }
  std::sort(json_sizes.begin(), json_sizes.end());
  std::sort(html_sizes.begin(), html_sizes.end());
  const std::pair<double, const stats::Summary*> checks[] = {
      {0.25, &summary.json_sizes}, {0.50, &summary.json_sizes},
      {0.75, &summary.json_sizes}, {0.90, &summary.json_sizes},
      {0.99, &summary.json_sizes}, {0.25, &summary.html_sizes},
      {0.50, &summary.html_sizes}, {0.75, &summary.html_sizes},
      {0.90, &summary.html_sizes}, {0.99, &summary.html_sizes}};
  for (const auto& [q, sketch_summary] : checks) {
    const bool is_json = sketch_summary == &summary.json_sizes;
    const auto& sorted = is_json ? json_sizes : html_sizes;
    if (sorted.empty()) continue;
    const double exact_q = exact_quantile(sorted, q);
    double sketch_q = 0.0;
    if (q == 0.25) sketch_q = sketch_summary->p25;
    else if (q == 0.50) sketch_q = sketch_summary->p50;
    else if (q == 0.75) sketch_q = sketch_summary->p75;
    else if (q == 0.90) sketch_q = sketch_summary->p90;
    else sketch_q = sketch_summary->p99;
    report.quantile_max_rel_error =
        std::max(report.quantile_max_rel_error, rel_error(sketch_q, exact_q));
  }
  report.quantile_error_bound = StreamingConfig::quantile_alpha;

  // --- Exact counters -----------------------------------------------------
  const auto methods = core::characterize_methods(json);
  const auto cache = core::characterize_cacheability(json);
  const auto source = core::characterize_source(json);
  report.counters_identical =
      methods.get == summary.methods.get &&
      methods.post == summary.methods.post &&
      methods.other == summary.methods.other &&
      methods.total == summary.methods.total &&
      cache.cacheable == summary.cacheability.cacheable &&
      cache.uncacheable == summary.cacheability.uncacheable &&
      cache.hits == summary.cacheability.hits &&
      source.total_requests == summary.source.total_requests &&
      source.requests_by_device == summary.source.requests_by_device &&
      source.browser_requests == summary.source.browser_requests &&
      source.mobile_browser_requests ==
          summary.source.mobile_browser_requests &&
      source.missing_ua_requests == summary.source.missing_ua_requests;

  // --- Triage recall ------------------------------------------------------
  const auto flows = logs::extract_object_flows(json);
  std::unordered_set<std::string_view> candidate_keys;
  for (const auto& c : summary.periodic_candidates)
    candidate_keys.insert(c.key);
  report.eligible_flows = flows.size();
  report.candidate_flows = summary.periodic_candidates.size();
  for (const auto& flow : flows) {
    if (!candidate_keys.contains(flow.url)) ++report.eligible_missed;
  }
  return report;
}

std::string render_validation(const ValidationReport& report) {
  std::ostringstream out;
  out << std::fixed;
  out << "Streaming-vs-batch validation\n";
  out << "  cardinality rel. error (bound " << std::setprecision(4)
      << report.hll_error_bound << "): urls "
      << report.url_cardinality_error << ", clients "
      << report.client_cardinality_error << ", domains "
      << report.domain_cardinality_error << "\n";
  out << "  top-" << report.topk_checked << " URLs found: "
      << report.topk_found << "/" << report.topk_checked
      << ", max count error " << std::setprecision(1)
      << report.topk_max_count_error << " (bound "
      << report.heavy_hitter_error_bound << ")\n";
  out << "  quantile rel. error: " << std::setprecision(4)
      << report.quantile_max_rel_error << " (bound "
      << report.quantile_error_bound << ")\n";
  out << "  exact counters identical: "
      << (report.counters_identical ? "yes" : "NO") << "\n";
  out << "  triage: " << report.candidate_flows << " candidates for "
      << report.eligible_flows << " eligible flows, " << report.eligible_missed
      << " eligible missed\n";
  out << "  within configured bounds: "
      << (report.within_bounds() ? "yes" : "NO") << "\n";
  return out.str();
}

}  // namespace jsoncdn::stream
