#include "workload/generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/distributions.h"

namespace jsoncdn::workload {

const std::vector<PeriodChoice>& canonical_periods() {
  // Spike set from Fig. 5 (even intervals dominate) plus a few oddball
  // periods so the histogram has realistic off-spike mass.
  static const std::vector<PeriodChoice> kPeriods = {
      {30.0, 0.16}, {60.0, 0.22}, {120.0, 0.13}, {180.0, 0.11},
      {300.0, 0.09}, {600.0, 0.11}, {900.0, 0.08}, {1800.0, 0.06},
      {45.0, 0.02},  {75.0, 0.02},
  };
  return kPeriods;
}

namespace {

double sample_period(stats::Rng& rng) {
  const auto& choices = canonical_periods();
  std::vector<double> weights;
  weights.reserve(choices.size());
  for (const auto& c : choices) weights.push_back(c.weight);
  return choices[stats::weighted_choice(weights, rng)].seconds;
}

std::string address_of(std::size_t client_index) {
  // Synthetic 10.x.y.z addresses; unique per client.
  const auto i = client_index;
  return "10." + std::to_string((i >> 16) & 0xff) + "." +
         std::to_string((i >> 8) & 0xff) + "." + std::to_string(i & 0xff);
}

}  // namespace

WorkloadGenerator::WorkloadGenerator(GeneratorConfig config)
    : config_(std::move(config)) {
  if (config_.duration_seconds <= 0.0)
    throw std::invalid_argument("WorkloadGenerator: duration <= 0");
  if (config_.n_clients == 0)
    throw std::invalid_argument("WorkloadGenerator: n_clients == 0");
  stats::Rng croot(config_.catalog_seed != 0 ? config_.catalog_seed
                                             : config_.seed);
  catalog_ = std::make_unique<DomainCatalog>(config_.catalog,
                                             croot.fork("catalog"));
  const auto& domains = catalog_->domains();
  app_graphs_.reserve(domains.size());
  AppGraphParams graph_params;
  graph_params.json_size_log_shift = config_.catalog.json_size_log_shift;
  for (std::size_t d = 0; d < domains.size(); ++d) {
    app_graphs_.emplace_back(domains[d], catalog_->mutable_objects(),
                             graph_params, croot.fork("appgraph").fork(d));
  }
}

Workload WorkloadGenerator::generate() const {
  stats::Rng root(config_.seed);
  // Canonical polling periods are firmware properties: tied to the catalog
  // seed so shared-ecosystem runs agree on them.
  stats::Rng setup = stats::Rng(config_.catalog_seed != 0 ? config_.catalog_seed
                                                          : config_.seed)
                         .fork("period-setup");

  const auto& domains = catalog_->domains();
  const double window = config_.duration_seconds;

  // Per-domain canonical polling period + client adherence probability.
  std::vector<double> canonical(domains.size());
  std::vector<double> adherence(domains.size());
  for (std::size_t d = 0; d < domains.size(); ++d) {
    canonical[d] = sample_period(setup);
    adherence[d] = setup.uniform(config_.canonical_period_adherence_lo,
                                 config_.canonical_period_adherence_hi);
  }

  Workload out;
  auto& truth = out.truth;

  const auto m2m_hubs = catalog_->top_domains(config_.m2m_top_domains);

  const std::vector<double> class_weights = {
      config_.shares.mobile_app,     config_.shares.mobile_browser,
      config_.shares.desktop_browser, config_.shares.embedded,
      config_.shares.library,        config_.shares.no_ua,
      config_.shares.garbage_ua,
  };
  constexpr ProfileClass kClasses[] = {
      ProfileClass::kMobileApp,      ProfileClass::kMobileBrowser,
      ProfileClass::kDesktopBrowser, ProfileClass::kEmbedded,
      ProfileClass::kLibrary,        ProfileClass::kNoUserAgent,
      ProfileClass::kGarbageUa,
  };

  auto append = [&](std::vector<RequestEvent>&& events) {
    for (auto& ev : events) out.events.push_back(std::move(ev));
  };

  // Records an app session's true URL chain before appending its events.
  auto append_session = [&](std::vector<RequestEvent>&& events) {
    if (!events.empty()) {
      SessionTruth st;
      st.client_address = events.front().client_address;
      st.user_agent = events.front().user_agent;
      st.urls.reserve(events.size());
      for (const auto& ev : events) st.urls.push_back(ev.url);
      truth.sessions.push_back(std::move(st));
    }
    append(std::move(events));
  };

  // Hybrid-app webview: after an app session, optionally load one HTML page
  // of the same domain (plus its template assets).
  auto maybe_webview = [&](const std::vector<RequestEvent>& session,
                           std::size_t dom, stats::Rng& rng) {
    if (session.empty() || !rng.bernoulli(config_.app_webview_html_prob))
      return;
    const auto& domain = domains[dom];
    if (domain.html_objects.empty()) return;
    const auto page_index = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(domain.html_objects.size()) - 1));
    RequestEvent ev;
    ev.time = session.back().time + rng.uniform(0.5, 3.0);
    ev.client_address = session.back().client_address;
    ev.user_agent = session.back().user_agent;
    ev.method = http::Method::kGet;
    ev.url = catalog_->objects().at(domain.html_objects[page_index]).url;
    out.events.push_back(std::move(ev));
  };

  // Emits one periodic flow for `client` and records the ground truth.
  // Machine-to-machine traffic concentrates: with m2m_concentration the
  // flow targets one of the hub domains rather than the client's favourite.
  auto add_periodic_flow = [&](const std::string& address,
                               const std::string& ua, std::size_t dom,
                               bool prefer_upload, stats::Rng& rng) {
    if (!m2m_hubs.empty() && rng.bernoulli(config_.m2m_concentration)) {
      dom = m2m_hubs[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(m2m_hubs.size()) - 1))];
    }
    const auto& domain = domains[dom];
    const bool upload = prefer_upload ? rng.bernoulli(0.75)
                                      : rng.bernoulli(0.35);
    const auto obj_index =
        upload ? domain.telemetry_object : domain.poll_object;
    if (!obj_index) return;
    const auto& url = catalog_->objects().at(*obj_index).url;

    const PeriodicStress& stress = config_.periodic_stress;
    // Applies the stress knobs to one flow's params. Parameter-value
    // changes only — no RNG draws — so inert knobs leave streams
    // bit-identical.
    auto apply_stress = [&](PeriodicFlowParams& params) {
      if (stress.jitter_relative > 0.0) {
        // Per-flow sigma uniform in [5%, jitter_relative] of the period: a
        // fleet of pollers with unequal timer quality, so the stress sweeps
        // from easy to hopeless instead of one cliff. Guarded draw keeps
        // the knob inert at 0.
        const double lo = std::min(0.05, stress.jitter_relative);
        const double rel = rng.uniform(lo, stress.jitter_relative);
        params.jitter_stddev =
            std::max(params.jitter_stddev, rel * params.period_seconds);
      }
      params.drift_per_cycle = stress.drift_per_cycle;
      if (stress.dropout_prob >= 0.0)
        params.dropout_prob = stress.dropout_prob;
      params.diurnal_amplitude = stress.diurnal_amplitude;
      params.diurnal_period = stress.diurnal_period;
    };
    // Emits one flow to `url` and records its truth row.
    auto emit_flow = [&](const PeriodicFlowParams& params,
                         stats::Rng& rng) {
      // Device online for a bounded stretch, not the whole window: flows
      // need >= 10 requests to enter the analysis but should not dominate
      // volume.
      const double ticks = static_cast<double>(rng.uniform_int(12, 60));
      const double span = std::min(window, params.period_seconds * ticks);
      const double start = rng.uniform(0.0, std::max(1e-9, window - span));
      PeriodicFlowParams flow_params = params;
      flow_params.phase_offset = rng.uniform(0.0, params.period_seconds);
      auto events = generate_periodic_flow(
          url, upload ? http::Method::kPost : http::Method::kGet, address,
          ua, start, start + span, flow_params, rng);
      if (events.empty()) return;
      PeriodicTruth pt;
      pt.client_address = address;
      pt.user_agent = ua;
      pt.url = url;
      pt.period_seconds = params.period_seconds;
      pt.request_count = events.size();
      truth.periodic_flows.push_back(std::move(pt));
      truth.periodic_events += events.size();
      append(std::move(events));
    };

    PeriodicFlowParams params;
    params.period_seconds = rng.bernoulli(adherence[dom])
                                ? canonical[dom]
                                : sample_period(rng);
    params.jitter_stddev = config_.periodic_jitter_stddev;
    apply_stress(params);
    emit_flow(params, rng);

    // Overlapping multi-period telemetry: a second flow to the SAME object
    // whose period is not a near-multiple of the first, so neither is a
    // harmonic of the other. Guarded draws keep the knob inert at 0.
    if (stress.multi_period_share > 0.0 &&
        rng.bernoulli(stress.multi_period_share)) {
      double second_period = 0.0;
      for (int attempt = 0; attempt < 8; ++attempt) {
        const double p = sample_period(rng);
        const double ratio = std::max(p, params.period_seconds) /
                             std::min(p, params.period_seconds);
        const double nearest = std::max(1.0, std::round(ratio));
        if (std::abs(ratio - nearest) / nearest > 0.25) {
          second_period = p;
          break;
        }
      }
      if (second_period > 0.0) {
        PeriodicFlowParams second;
        second.period_seconds = second_period;
        second.jitter_stddev = config_.periodic_jitter_stddev;
        apply_stress(second);
        emit_flow(second, rng);
      }
    }
  };

  auto interactive_session_starts = [&](stats::Rng& rng) {
    std::vector<double> starts;
    const double mean = config_.mean_sessions_per_client;
    // Poisson-distributed session count, uniform start times.
    const double rate = mean / window;
    stats::PoissonProcess process(std::max(rate, 1e-12));
    starts = process.arrivals(0.0, window, rng);
    return starts;
  };

  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    stats::Rng rng = root.fork("client").fork(i);
    const auto cls =
        kClasses[stats::weighted_choice(class_weights, rng)];
    const auto& profile = sample_profile(cls, rng);
    const auto ua = materialize_user_agent(profile, rng);
    const auto address = address_of(i);
    const auto favorite = catalog_->sample_domain(rng);

    ClientTruth ct;
    ct.address = address;
    ct.user_agent = ua;
    ct.profile_class = cls;
    ct.device = profile.true_device;
    ct.agent = profile.true_agent;

    switch (cls) {
      case ProfileClass::kMobileApp: {
        for (double t0 : interactive_session_starts(rng)) {
          auto session = generate_app_session(app_graphs_[favorite], address,
                                              ua, t0, rng);
          maybe_webview(session, favorite, rng);
          append_session(std::move(session));
        }
        if (rng.bernoulli(config_.periodic.mobile_app)) {
          ct.runs_periodic_flow = true;
          add_periodic_flow(address, ua, favorite,
                            /*prefer_upload=*/true, rng);
        }
        break;
      }
      case ProfileClass::kMobileBrowser:
      case ProfileClass::kDesktopBrowser: {
        for (double t0 : interactive_session_starts(rng)) {
          append(generate_browser_session(domains[favorite],
                                          catalog_->objects(), address,
                                          ua, t0,
                                          config_.browser_session, rng));
        }
        break;
      }
      case ProfileClass::kEmbedded: {
        if (rng.bernoulli(config_.periodic.embedded)) {
          ct.runs_periodic_flow = true;
          // IoT / watch style: one or two periodic flows.
          add_periodic_flow(address, ua, favorite,
                            /*prefer_upload=*/true, rng);
          if (rng.bernoulli(0.3)) {
            add_periodic_flow(address, ua,
                              catalog_->sample_domain(rng),
                              /*prefer_upload=*/false, rng);
          }
        } else {
          // Console / smart-TV app behaviour.
          for (double t0 : interactive_session_starts(rng)) {
            append_session(generate_app_session(app_graphs_[favorite], address,
                                                ua, t0, rng));
          }
        }
        break;
      }
      case ProfileClass::kLibrary: {
        const auto& domain = domains[favorite];
        if (domain.telemetry_object) {
          const auto& url = catalog_->objects().at(*domain.telemetry_object).url;
          const double span = std::min(
              window, rng.uniform(config_.beacon_session_lo_seconds,
                                  config_.beacon_session_hi_seconds));
          const double start = rng.uniform(0.0, std::max(1e-9, window - span));
          append(generate_poisson_beacon(url, address, ua,
                                         start, start + span,
                                         config_.beacon_rate, rng));
        }
        if (rng.bernoulli(config_.periodic.library)) {
          ct.runs_periodic_flow = true;
          add_periodic_flow(address, ua, favorite,
                            /*prefer_upload=*/false, rng);
        }
        break;
      }
      case ProfileClass::kNoUserAgent:
      case ProfileClass::kGarbageUa: {
        // Unknown UAs hide a mix of app traffic and scripted beacons.
        if (rng.bernoulli(config_.unknown_app_like_share)) {
          for (double t0 : interactive_session_starts(rng)) {
            append_session(generate_app_session(app_graphs_[favorite], address,
                                                ua, t0, rng));
          }
        } else {
          const auto& domain = domains[favorite];
          if (domain.telemetry_object) {
            const auto& url =
                catalog_->objects().at(*domain.telemetry_object).url;
            const double span = std::min(
                window, rng.uniform(config_.beacon_session_lo_seconds,
                                    config_.beacon_session_hi_seconds));
            const double start =
                rng.uniform(0.0, std::max(1e-9, window - span));
            append(generate_poisson_beacon(url, address, ua, start,
                                           start + span, config_.beacon_rate,
                                           rng));
          }
        }
        const double p = cls == ProfileClass::kNoUserAgent
                             ? config_.periodic.no_ua
                             : config_.periodic.garbage_ua;
        if (rng.bernoulli(p)) {
          ct.runs_periodic_flow = true;
          add_periodic_flow(address, ua, favorite,
                            /*prefer_upload=*/true, rng);
        }
        break;
      }
    }
    truth.clients.push_back(std::move(ct));
  }

  // Adversarial traffic rides on top of the benign stream. The benign
  // event count is measured post-clamp so the hostile share targets what
  // the CDN will actually see; hostile events are emitted in-window.
  if (config_.hostile.hostile_share > 0.0) {
    std::erase_if(out.events, [&](const RequestEvent& ev) {
      return ev.time < 0.0 || ev.time >= window;
    });
    inject_hostile_traffic(out, *catalog_, config_.hostile, window,
                           out.events.size(), root.fork("hostile"));
  }

  // Clamp to the window (sessions started near the end may overrun) and
  // establish global time order.
  std::erase_if(out.events, [&](const RequestEvent& ev) {
    return ev.time < 0.0 || ev.time >= window;
  });
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const RequestEvent& a, const RequestEvent& b) {
                     return a.time < b.time;
                   });
  truth.total_events = out.events.size();

  // Domain -> industry label, straight from the catalog's assignment.
  for (const auto& domain : domains) {
    truth.industry_of_domain.emplace(domain.name,
                                     std::string(to_string(domain.industry)));
  }

  // URL -> template key map for clustered-prediction scoring.
  for (const auto& graph : app_graphs_) {
    for (std::size_t t = 0; t < graph.endpoint_count(); ++t) {
      const std::string key = graph.domain() + "#" + std::to_string(t);
      for (const auto& url : graph.urls_of(t)) {
        truth.template_of_url.emplace(url, key);
      }
    }
  }
  return out;
}

}  // namespace jsoncdn::workload
