#include "workload/sessions.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/distributions.h"

namespace jsoncdn::workload {

namespace {

// Geometric session length with the given mean (>= 1), at least 1.
std::size_t geometric_length(double mean, stats::Rng& rng) {
  const double p = 1.0 / mean;
  std::size_t len = 1;
  while (!rng.bernoulli(p)) ++len;
  return len;
}

std::uint64_t lognormal_bytes(double log_mean, double log_stddev,
                              stats::Rng& rng) {
  const double v = std::exp(rng.normal(log_mean, log_stddev));
  return static_cast<std::uint64_t>(std::llround(std::max(1.0, v)));
}

}  // namespace

std::vector<RequestEvent> generate_app_session(
    const AppGraph& graph, const std::string& client_address,
    const std::string& user_agent, double t0, stats::Rng& rng) {
  std::vector<RequestEvent> events;
  const std::size_t length =
      geometric_length(AppSessionParams::mean_requests_per_session, rng);
  double t = t0;
  std::size_t tmpl = graph.manifest();
  for (std::size_t i = 0; i < length; ++i) {
    RequestEvent ev;
    ev.time = t;
    ev.client_address = client_address;
    ev.user_agent = user_agent;
    ev.method = graph.method_of(tmpl);
    ev.url = graph.instantiate(tmpl, rng);
    if (http::is_upload(ev.method)) {
      ev.request_bytes =
          lognormal_bytes(AppSessionParams::post_body_log_mean,
                          AppSessionParams::post_body_log_stddev, rng);
    }
    events.push_back(std::move(ev));
    t += std::exp(rng.normal(AppSessionParams::think_time_log_mean,
                             AppSessionParams::think_time_log_stddev));
    tmpl = graph.next_template(tmpl, rng);
  }
  return events;
}

std::vector<RequestEvent> generate_browser_session(
    const DomainSpec& domain, const ObjectCatalog& catalog,
    const std::string& client_address, const std::string& user_agent,
    double t0, const BrowserSessionParams& params, stats::Rng& rng) {
  std::vector<RequestEvent> events;
  if (domain.html_objects.empty()) return events;
  const std::size_t pages =
      geometric_length(params.mean_pages_per_session, rng);
  double t = t0;
  for (std::size_t p = 0; p < pages; ++p) {
    // The HTML document itself.
    const auto page_index = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(domain.html_objects.size()) - 1));
    const auto& page = catalog.at(domain.html_objects[page_index]);
    RequestEvent doc;
    doc.time = t;
    doc.client_address = client_address;
    doc.user_agent = user_agent;
    doc.method = http::Method::kGet;
    doc.url = page.url;
    events.push_back(std::move(doc));

    // Subresources are template-fixed per page: the browser fetches what the
    // HTML references.
    double st = t;
    if (page_index < domain.page_assets.size()) {
      for (const auto asset_index : domain.page_assets[page_index]) {
        st += params.subresource_gap;
        RequestEvent ev;
        ev.time = st;
        ev.client_address = client_address;
        ev.user_agent = user_agent;
        ev.method = http::Method::kGet;
        ev.url = catalog.at(asset_index).url;
        events.push_back(std::move(ev));
      }
    }

    // JSON XHRs, also template-driven; json_xhr_prob models pages whose
    // data was cached client-side.
    if (page_index < domain.page_xhrs.size() &&
        rng.bernoulli(params.json_xhr_prob)) {
      for (const auto xhr_index : domain.page_xhrs[page_index]) {
        st += params.subresource_gap;
        RequestEvent ev;
        ev.time = st;
        ev.client_address = client_address;
        ev.user_agent = user_agent;
        ev.method = http::Method::kGet;
        ev.url = catalog.at(xhr_index).url;
        events.push_back(std::move(ev));
      }
    }

    t += std::exp(rng.normal(params.page_dwell_log_mean,
                             params.page_dwell_log_stddev));
  }
  return events;
}

std::vector<RequestEvent> generate_periodic_flow(
    const std::string& url, http::Method method,
    const std::string& client_address, const std::string& user_agent,
    double t_begin, double t_end, const PeriodicFlowParams& params,
    stats::Rng& rng) {
  if (params.period_seconds <= 0.0)
    throw std::invalid_argument("generate_periodic_flow: period <= 0");
  if (params.jitter_stddev < 0.0)
    throw std::invalid_argument("generate_periodic_flow: negative jitter");
  if (params.diurnal_amplitude < 0.0 || params.diurnal_amplitude > 1.0)
    throw std::invalid_argument(
        "generate_periodic_flow: diurnal_amplitude outside [0,1]");
  if (params.diurnal_amplitude > 0.0 && params.diurnal_period <= 0.0)
    throw std::invalid_argument("generate_periodic_flow: diurnal_period <= 0");
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  std::vector<RequestEvent> events;
  std::size_t cycle = 0;
  for (double tick = t_begin + params.phase_offset; tick < t_end; ++cycle) {
    double dropout = params.dropout_prob;
    if (params.diurnal_amplitude > 0.0) {
      // Raised-cosine swell: zero at the cycle boundaries, full amplitude
      // mid-cycle. Keyed to absolute time so all clients share the phase.
      dropout = std::clamp(
          dropout + params.diurnal_amplitude * 0.5 *
                        (1.0 - std::cos(kTwoPi * tick /
                                        params.diurnal_period)),
          0.0, 1.0);
    }
    const bool skipped = rng.bernoulli(dropout);
    if (!skipped) {
      double t = tick;
      if (params.jitter_stddev > 0.0)
        t += rng.normal(0.0, params.jitter_stddev);
      if (t >= t_begin && t < t_end) {
        RequestEvent ev;
        ev.time = t;
        ev.client_address = client_address;
        ev.user_agent = user_agent;
        ev.method = method;
        ev.url = url;
        if (http::is_upload(method))
          ev.request_bytes = lognormal_bytes(5.0, 0.5, rng);
        events.push_back(std::move(ev));
      }
    }
    double gap = params.period_seconds;
    if (params.drift_per_cycle != 0.0) {
      gap *= std::max(0.05, 1.0 + params.drift_per_cycle *
                                      static_cast<double>(cycle));
    }
    tick += gap;
  }
  // Jitter can reorder adjacent ticks; the dataset expects ascending times
  // per flow.
  std::sort(events.begin(), events.end(),
            [](const RequestEvent& a, const RequestEvent& b) {
              return a.time < b.time;
            });
  return events;
}

std::vector<RequestEvent> generate_poisson_beacon(
    const std::string& url, const std::string& client_address,
    const std::string& user_agent, double t_begin, double t_end, double rate,
    stats::Rng& rng) {
  stats::PoissonProcess process(rate);
  std::vector<RequestEvent> events;
  for (double t : process.arrivals(t_begin, t_end, rng)) {
    RequestEvent ev;
    ev.time = t;
    ev.client_address = client_address;
    ev.user_agent = user_agent;
    ev.method = http::Method::kPost;
    ev.url = url;
    ev.request_bytes = lognormal_bytes(5.0, 0.5, rng);
    events.push_back(std::move(ev));
  }
  return events;
}

}  // namespace jsoncdn::workload
