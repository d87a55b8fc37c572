// Client session models: each turns a client + time window into a sequence
// of request events. Four generators cover the behaviours the paper
// observes: native-app sessions walking a manifest-driven dependency graph
// (§2.3 pattern 1, §5.2), browser page loads, periodic machine-to-machine
// pollers (§2.3 pattern 2, §5.1), and aperiodic upload beacons.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "http/method.h"
#include "stats/rng.h"
#include "workload/app_graph.h"
#include "workload/catalog.h"

namespace jsoncdn::workload {

// One request as generated by a client, before the CDN sees it. Cache
// outcome, response size, and content type are decided by the CDN/origin
// (the object catalog), not the client.
struct RequestEvent {
  double time = 0.0;
  std::string client_address;  // raw address; the CDN log anonymizes it
  std::string user_agent;
  http::Method method = http::Method::kGet;
  std::string url;
  std::uint64_t request_bytes = 0;  // upload body size (POST)
};

// Every app session has the same shape.
struct AppSessionParams {
  // Geometric session length.
  static constexpr double mean_requests_per_session = 8.0;
  // ln seconds between requests.
  static constexpr double think_time_log_mean = 1.0;
  static constexpr double think_time_log_stddev = 0.8;
  // ln bytes of upload bodies.
  static constexpr double post_body_log_mean = 5.5;
  static constexpr double post_body_log_stddev = 0.8;
};

// One app session starting at `t0`: manifest first, then a graph walk.
[[nodiscard]] std::vector<RequestEvent> generate_app_session(
    const AppGraph& graph, const std::string& client_address,
    const std::string& user_agent, double t0, stats::Rng& rng);

// The Fig. 1 model varies how often pages fire JSON XHRs; the rest of a
// browsing session's shape is constant. Which assets and XHRs a page
// fetches is the catalog's page template (DomainSpec::page_assets,
// page_xhrs).
struct BrowserSessionParams {
  static constexpr double mean_pages_per_session = 3.0;
  double json_xhr_prob = 0.8;          // chance a page issues JSON XHRs
  // ln seconds between page loads.
  static constexpr double page_dwell_log_mean = 2.5;
  static constexpr double page_dwell_log_stddev = 0.7;
  // Seconds between subresource fetches.
  static constexpr double subresource_gap = 0.15;
};

// One browsing session on a domain: HTML page, its subresources, optional
// JSON XHR, repeated for a geometric number of pages.
[[nodiscard]] std::vector<RequestEvent> generate_browser_session(
    const DomainSpec& domain, const ObjectCatalog& catalog,
    const std::string& client_address, const std::string& user_agent,
    double t0, const BrowserSessionParams& params, stats::Rng& rng);

struct PeriodicFlowParams {
  double period_seconds = 60.0;
  double jitter_stddev = 0.4;    // seconds of gaussian timing noise
  double dropout_prob = 0.02;    // chance a tick is skipped
  double phase_offset = 0.0;     // start offset within the window

  // ---- hostile-scenario knobs (all inert at their defaults) ----
  // Clock drift: tick k advances by period * (1 + drift_per_cycle * k)
  // instead of a constant period — a slowly stretching (or, negative,
  // compressing) schedule, as from an unsynchronized device clock. The
  // per-tick gap factor is floored at 0.05 so negative drift can never
  // stall or reverse the schedule.
  double drift_per_cycle = 0.0;
  // Diurnal modulation: the effective dropout probability swells by up to
  // `diurnal_amplitude` (peak at the middle of each diurnal_period cycle),
  // modelling pollers that back off overnight. 0 disables; the base
  // dropout_prob draw is unchanged so default flows are bit-identical.
  double diurnal_amplitude = 0.0;
  double diurnal_period = 86400.0;
};

// Periodic machine-to-machine flow to one object over [t_begin, t_end).
// `method` distinguishes telemetry uploads (POST) from pollers (GET).
[[nodiscard]] std::vector<RequestEvent> generate_periodic_flow(
    const std::string& url, http::Method method,
    const std::string& client_address, const std::string& user_agent,
    double t_begin, double t_end, const PeriodicFlowParams& params,
    stats::Rng& rng);

// Aperiodic upload beacon: Poisson POSTs to `url` over the window — machine
// traffic without a detectable period (the periodicity detector must reject
// these; tests score its false-positive rate on them).
[[nodiscard]] std::vector<RequestEvent> generate_poisson_beacon(
    const std::string& url, const std::string& client_address,
    const std::string& user_agent, double t_begin, double t_end, double rate,
    stats::Rng& rng);

}  // namespace jsoncdn::workload
