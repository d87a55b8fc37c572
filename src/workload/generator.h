// Top-level workload generator: builds a client population, assigns each
// client a behaviour model, and merges all request events into one
// time-ordered stream with full ground truth. This is the stand-in for the
// paper's production traffic; every figure/table is regenerated from its
// output, and the ground truth lets tests score the paper's detectors
// (something the original study could not do).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload/adversary.h"
#include "workload/app_graph.h"
#include "workload/catalog.h"
#include "workload/device_profiles.h"
#include "workload/sessions.h"

namespace jsoncdn::workload {

// Population mix over profile classes (fractions of clients; need not sum to
// exactly 1 — they are used as weights). Defaults approximate the paper's
// Fig. 3 request shares: mobile >= 55%, embedded ~12%, unknown ~24%,
// desktop small, and 88% non-browser overall.
struct PopulationShares {
  double mobile_app = 0.50;
  double mobile_browser = 0.06;
  double desktop_browser = 0.08;
  double embedded = 0.12;
  double library = 0.03;
  double no_ua = 0.165;
  double garbage_ua = 0.03;
};

// Probability that a client of a class runs a periodic machine-to-machine
// flow in addition to (or instead of) its interactive behaviour.
struct PeriodicShares {
  double mobile_app = 0.03;   // apps with background refresh/telemetry
  double embedded = 0.55;     // IoT, watches: mostly periodic by nature
  double library = 0.35;      // cron-style scripts
  double no_ua = 0.10;
  double garbage_ua = 0.10;
};

// Hostile-periodic stress layered onto every periodic flow — the regimes
// the binned ACF+FFT detector is weak on, each one knob. All knobs are
// inert at their defaults: no extra RNG draws, so the event stream is
// bit-identical to a config without them.
struct PeriodicStress {
  // Per-flow jitter floor as a fraction of the flow's period (e.g. 0.30 =
  // sigma is 30% of the period). The larger of this and the absolute
  // periodic_jitter_stddev wins.
  double jitter_relative = 0.0;
  // Clock drift per cycle (sessions.h: tick k advances by
  // period * (1 + drift_per_cycle * k)).
  double drift_per_cycle = 0.0;
  // Overrides the flows' tick-dropout probability when >= 0 (default 0.02
  // from PeriodicFlowParams); < 0 keeps the default.
  double dropout_prob = -1.0;
  // Diurnal dropout swell (sessions.h). The short default cycle makes the
  // modulation visible inside a two-hour validation window.
  double diurnal_amplitude = 0.0;
  double diurnal_period = 5400.0;
  // Chance a periodic client runs a SECOND overlapping flow to the same
  // object, with a period that is not a near-multiple of the first — the
  // multi-period telemetry case. Emits its own truth row.
  double multi_period_share = 0.0;
};

// A value is a field when a scenario preset, the Fig. 1 model or a CLI sets
// it; every other generator value is a constant (DESIGN §13). App graphs
// and app sessions have no settings of their own (AppGraphParams,
// AppSessionParams).
struct GeneratorConfig {
  std::uint64_t seed = 1;
  // Seed for the domain/object catalog and app graphs; 0 derives it from
  // `seed`. Setting it explicitly lets two runs share one app ecosystem
  // while drawing different client populations (train/replay experiments).
  std::uint64_t catalog_seed = 0;
  double duration_seconds = 600.0;
  std::size_t n_clients = 2000;
  PopulationShares shares;
  PeriodicShares periodic;
  CatalogConfig catalog;
  BrowserSessionParams browser_session;
  // Mean interactive sessions per client over the window.
  double mean_sessions_per_client = 3.0;
  // Poisson beacon rate (req/s) for library/script clients.
  static constexpr double beacon_rate = 1.0 / 110.0;
  // Share of unknown-UA clients that behave like apps (vs scripted beacons).
  double unknown_app_like_share = 0.75;
  // Chance an app session opens an embedded webview (one HTML page load) —
  // hybrid apps; a second source of HTML traffic besides browsers.
  double app_webview_html_prob = 0.10;
  // Scripted beacon clients run in bounded sessions (cron jobs, batch
  // uploads), not all day: per-activation span drawn from this range.
  static constexpr double beacon_session_lo_seconds = 900.0;
  static constexpr double beacon_session_hi_seconds = 7200.0;
  // Machine-to-machine traffic concentrates on a few big endpoints
  // (analytics providers, central telemetry): with this probability a
  // periodic client targets one of the top `m2m_top_domains` domains
  // instead of its own favourite.
  static constexpr double m2m_concentration = 0.7;
  static constexpr std::size_t m2m_top_domains = 6;
  // Gaussian jitter of periodic request timing, seconds.
  static constexpr double periodic_jitter_stddev = 0.35;
  // Probability a periodic client adopts its object's canonical period
  // (drives the Fig. 6 share of period-matching clients per object).
  static constexpr double canonical_period_adherence_lo = 0.20;
  static constexpr double canonical_period_adherence_hi = 0.80;
  // Hostile-periodic stress knobs (inert at defaults; see PeriodicStress).
  PeriodicStress periodic_stress;
  // Adversarial traffic layered on top of the benign population (inert at
  // hostile_share == 0: no events, no attacker truth, benign stream
  // unchanged).
  HostileConfig hostile;
};

// Ground-truth labels, kept separate from the log stream: the analyses never
// see these.
struct ClientTruth {
  std::string address;
  std::string user_agent;
  ProfileClass profile_class = ProfileClass::kNoUserAgent;
  http::DeviceType device = http::DeviceType::kUnknown;
  http::AgentKind agent = http::AgentKind::kUnknown;
  bool runs_periodic_flow = false;
};

struct PeriodicTruth {
  std::string client_address;
  std::string user_agent;
  std::string url;
  double period_seconds = 0.0;
  std::size_t request_count = 0;
};

// One interactive session's true URL chain, in request order, as the client
// intended it — before CDN routing interleaves clients and before the window
// clamp drops overrunning tails. The oracle's n-gram skyline trains on these
// chains; the gap between skyline accuracy and log-measured accuracy is the
// cost of observing sessions only through the edge log.
struct SessionTruth {
  std::string client_address;
  std::string user_agent;
  std::vector<std::string> urls;
};

struct GroundTruth {
  std::vector<ClientTruth> clients;
  std::vector<PeriodicTruth> periodic_flows;
  std::vector<SessionTruth> sessions;  // app-graph-driven sessions
  // Hostile clients with their attack class (workload/adversary.h). A join
  // on client_address labels every hostile request: attackers use dedicated
  // addresses the benign population never draws.
  std::vector<AttackerTruth> attackers;
  std::size_t total_events = 0;
  std::size_t periodic_events = 0;   // events emitted by periodic flows
  std::size_t hostile_events = 0;    // events emitted by attackers
  // Template id per app-graph URL (for scoring clustered-URL prediction).
  std::unordered_map<std::string, std::string> template_of_url;
  // Domain -> industry label (the categorization service the paper buys,
  // exported so analyses' industry marginals can be graded exactly).
  std::unordered_map<std::string, std::string> industry_of_domain;
};

struct Workload {
  std::vector<RequestEvent> events;  // ascending time
  GroundTruth truth;
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(GeneratorConfig config);

  // Generates the full event stream. Deterministic: same config -> same
  // workload. Callable repeatedly; each call regenerates from the seed.
  [[nodiscard]] Workload generate() const;

  [[nodiscard]] const DomainCatalog& catalog() const noexcept {
    return *catalog_;
  }
  [[nodiscard]] const std::vector<AppGraph>& app_graphs() const noexcept {
    return app_graphs_;
  }

 private:
  GeneratorConfig config_;
  std::unique_ptr<DomainCatalog> catalog_;
  std::vector<AppGraph> app_graphs_;  // one per domain
};

// Canonical machine-to-machine period set: the spikes the paper reports in
// Fig. 5 (30 s, 1 m, 2 m, 3 m, 5 m, 10 m, 15 m, 30 m) plus their weights.
struct PeriodChoice {
  double seconds;
  double weight;
};
[[nodiscard]] const std::vector<PeriodChoice>& canonical_periods();

}  // namespace jsoncdn::workload
