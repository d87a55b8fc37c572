#include "oracle/scorer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "core/url_cluster.h"
#include "http/device_db.h"

namespace jsoncdn::oracle {

namespace {

double ratio(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

std::string flow_key(std::string_view url, std::string_view client) {
  std::string key;
  key.reserve(url.size() + 1 + client.size());
  key.append(url);
  key.push_back('\x1f');
  key.append(client);
  return key;
}

// L1 distance between two share maps over the union of their keys.
template <typename Map>
double l1_distance(const Map& a, const Map& b) {
  double out = 0.0;
  for (const auto& [key, value] : a) {
    const auto it = b.find(key);
    out += std::abs(value - (it == b.end() ? 0.0 : it->second));
  }
  for (const auto& [key, value] : b) {
    if (!a.contains(key)) out += std::abs(value);
  }
  return out;
}

template <typename Map>
void normalize(Map& shares) {
  double total = 0.0;
  for (const auto& [key, value] : shares) total += value;
  if (total <= 0.0) return;
  for (auto& [key, value] : shares) value /= total;
}

}  // namespace

// ---- Periodicity detector -------------------------------------------------

double DetectorScore::precision() const noexcept {
  return ratio(true_positives, true_positives + false_positives);
}

double DetectorScore::recall() const noexcept {
  return ratio(true_positives, true_positives + false_negatives);
}

double DetectorScore::f1() const noexcept {
  const double p = precision();
  const double r = recall();
  return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double DetectorScore::coverage() const noexcept {
  return ratio(eligible_truth, truth_flows);
}

double DetectorScore::max_period_rel_error() const noexcept {
  double worst = 0.0;
  for (const double e : period_rel_errors) worst = std::max(worst, e);
  return worst;
}

DetectorScore score_periodicity(const core::PeriodicityReport& report,
                                const TruthSidecar& truth) {
  DetectorScore score;
  score.truth_flows = truth.periodic_flows.size();

  // (url, client) -> labelled flows. A client can run two periodic flows to
  // the same hub object; the detector reports at most one period per flow,
  // so a detection recovers its best-matching label and any leftover labels
  // on the key count as misses.
  struct Entry {
    double period = 0.0;
    bool eligible = false;
    bool recovered = false;
  };
  std::vector<Entry> entries;
  entries.reserve(truth.periodic_flows.size());
  std::unordered_map<std::string, std::vector<std::size_t>> by_key;
  for (const auto& flow : truth.periodic_flows) {
    by_key[flow_key(flow.url, flow.client_key)].push_back(entries.size());
    entries.push_back({flow.period_seconds, false, false});
  }

  // Flows of labeled attackers score as neither TP nor FP (see the
  // hostile_detections comment in the header). Empty for benign sidecars.
  std::unordered_set<std::string> hostile_clients;
  hostile_clients.reserve(truth.attackers.size());
  for (const auto& a : truth.attackers) hostile_clients.insert(a.client_key);

  for (const auto& object : report.objects) {
    for (const auto& rec : object.clients) {
      ++score.analyzed_flows;
      // All periods this flow's detector reported: the primary plus any
      // extras from the multi-period strategy. Each detection is graded
      // independently — TP against its best unrecovered label, else FP —
      // so a multi-period detector earns its second label but pays for a
      // hallucinated one. Single-period strategies have no extras and
      // score exactly as before.
      if (!hostile_clients.empty() &&
          hostile_clients.count(rec.client) != 0) {
        if (rec.periodic)
          score.hostile_detections += 1 + rec.extra_periods.size();
        continue;
      }
      const auto it = by_key.find(flow_key(object.url, rec.client));
      if (it != by_key.end()) {
        for (const auto idx : it->second) entries[idx].eligible = true;
      }
      if (!rec.periodic) continue;
      const std::size_t detections = 1 + rec.extra_periods.size();
      for (std::size_t d = 0; d < detections; ++d) {
        const double detected_period =
            d == 0 ? rec.period_seconds : rec.extra_periods[d - 1];
        // Detected: find the best-matching label within tolerance.
        std::size_t best = SIZE_MAX;
        double best_err = core::DetectorParams::period_match_tolerance;
        if (it != by_key.end()) {
          for (const auto idx : it->second) {
            if (entries[idx].recovered) continue;
            const double ref =
                std::max(entries[idx].period, detected_period);
            if (ref <= 0.0) continue;
            const double err =
                std::abs(entries[idx].period - detected_period) / ref;
            if (err <= best_err) {
              best_err = err;
              best = idx;
            }
          }
        }
        if (best != SIZE_MAX) {
          entries[best].recovered = true;
          ++score.true_positives;
          score.period_rel_errors.push_back(best_err);
        } else {
          ++score.false_positives;
        }
      }
    }
  }

  for (const auto& entry : entries) {
    if (!entry.eligible) continue;
    ++score.eligible_truth;
    if (!entry.recovered) ++score.false_negatives;
  }
  return score;
}

// ---- Ngram predictor ------------------------------------------------------

std::map<std::size_t, double> NgramScore::delta() const {
  std::map<std::size_t, double> out;
  for (const auto& [k, sky] : skyline.accuracy_at) {
    const auto it = measured.accuracy_at.find(k);
    out[k] = sky - (it == measured.accuracy_at.end() ? 0.0 : it->second);
  }
  return out;
}

NgramScore score_ngram(const logs::TableView& json, const TruthSidecar& truth,
                       const core::NgramEvalConfig& config) {
  NgramScore score;
  score.measured = core::evaluate_ngram(json, config);

  // Skyline: the identical protocol over the intended session chains. The
  // client split is evaluate_ngram's, so a client lands on the same side of
  // both runs and the delta compares like with like.
  auto token_of = [&](const std::string& url) -> std::string {
    if (!config.clustered) return url;
    const auto it = truth.template_of_url.find(url);
    return it != truth.template_of_url.end() ? it->second
                                             : core::cluster_url(url);
  };

  score.skyline.context_len = config.context_len;
  score.skyline.clustered = config.clustered;

  core::NgramModel model(config.context_len);
  std::vector<const TruthSession*> test_sessions;
  std::unordered_set<std::string> train_clients;
  std::unordered_set<std::string> test_clients;
  for (const auto& session : truth.sessions) {
    if (session.urls.size() < config.min_flow_requests) continue;
    if (core::is_train_client(session.client_key)) {
      train_clients.insert(session.client_key);
      std::vector<std::string> tokens;
      tokens.reserve(session.urls.size());
      for (const auto& url : session.urls) tokens.push_back(token_of(url));
      model.observe_sequence(tokens);
    } else {
      test_clients.insert(session.client_key);
      test_sessions.push_back(&session);
    }
  }
  model.freeze();
  score.skyline.train_clients = train_clients.size();
  score.skyline.test_clients = test_clients.size();

  const std::size_t max_k =
      *std::max_element(config.ks.begin(), config.ks.end());
  std::array<std::uint64_t, core::NgramEvalConfig::ks.size()> hits{};
  std::uint64_t predictions = 0;
  for (const auto* session : test_sessions) {
    std::vector<std::string> tokens;
    tokens.reserve(session->urls.size());
    for (const auto& url : session->urls) tokens.push_back(token_of(url));
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const std::size_t ctx = std::min(config.context_len, i);
      const std::span<const std::string> history(&tokens[i - ctx], ctx);
      const auto predicted = model.predict(history, max_k);
      ++predictions;
      for (std::size_t ki = 0; ki < config.ks.size(); ++ki) {
        const auto limit = std::min(config.ks[ki], predicted.size());
        for (std::size_t p = 0; p < limit; ++p) {
          if (predicted[p].token == tokens[i]) {
            ++hits[ki];
            break;
          }
        }
      }
    }
  }
  score.skyline.predictions = predictions;
  for (std::size_t ki = 0; ki < config.ks.size(); ++ki) {
    score.skyline.accuracy_at[config.ks[ki]] =
        predictions == 0 ? 0.0
                         : static_cast<double>(hits[ki]) /
                               static_cast<double>(predictions);
  }
  return score;
}

// ---- Characterization marginals ------------------------------------------

MarginalScore score_marginals(const logs::TableView& view,
                              const core::SourceBreakdown& source,
                              const TruthSidecar& truth) {
  MarginalScore score;

  // Device marginal: classifier-derived request shares vs truth-joined ones.
  constexpr std::array<http::DeviceType, 4> kDevices = {
      http::DeviceType::kMobile, http::DeviceType::kDesktop,
      http::DeviceType::kEmbedded, http::DeviceType::kUnknown};
  std::unordered_map<std::string, std::size_t> device_index;
  for (std::size_t d = 0; d < kDevices.size(); ++d)
    device_index.emplace(std::string(http::to_string(kDevices[d])), d);

  std::unordered_map<std::string, std::size_t> device_of_client;
  device_of_client.reserve(truth.clients.size());
  for (const auto& client : truth.clients) {
    const auto it = device_index.find(client.device);
    if (it != device_index.end())
      device_of_client.emplace(client.client_key, it->second);
  }

  // Labeled attackers are excluded from both sides of the comparison: the
  // marginal grades recovery of the benign population, and hostile UAs
  // (scraper/stuffing bots) would otherwise shift the measured device mix
  // against a truth that only describes benign clients. When the sidecar
  // carries attackers the measured shares are recomputed over the benign
  // records with the same classifier the characterization uses; benign
  // sidecars take the untouched `source` path bit-for-bit.
  std::unordered_set<std::string> attacker_keys;
  attacker_keys.reserve(truth.attackers.size());
  for (const auto& a : truth.attackers) attacker_keys.insert(a.client_key);

  const auto& table = view.table();
  std::array<std::uint64_t, 4> truth_requests{};
  std::array<std::uint64_t, 4> benign_requests{};
  std::uint64_t benign_total = 0;
  std::unordered_map<std::string, std::size_t> ua_device_cache;
  for (std::size_t k = 0; k < view.size(); ++k) {
    const auto row = view[k];
    const std::string client_key(table.client_key(row));
    if (!attacker_keys.empty() && attacker_keys.count(client_key) != 0) {
      ++score.hostile_requests;
      continue;
    }
    if (!attacker_keys.empty()) {
      const std::string user_agent(table.user_agent(row));
      const auto [ua_it, inserted] =
          ua_device_cache.try_emplace(user_agent, kDevices.size() - 1);
      if (inserted) {
        const auto device = http::classify_device(user_agent).device;
        for (std::size_t d = 0; d < kDevices.size(); ++d) {
          if (kDevices[d] == device) {
            ua_it->second = d;
            break;
          }
        }
      }
      ++benign_requests[ua_it->second];
      ++benign_total;
    }
    const auto it = device_of_client.find(client_key);
    if (it == device_of_client.end()) {
      ++score.unmatched_requests;
      continue;
    }
    ++score.joined_requests;
    ++truth_requests[it->second];
  }
  if (score.joined_requests > 0) {
    double l1 = 0.0;
    for (std::size_t d = 0; d < kDevices.size(); ++d) {
      const double truth_share =
          ratio(truth_requests[d], score.joined_requests);
      const double measured_share =
          attacker_keys.empty()
              ? source.device_share(kDevices[d])
              : ratio(benign_requests[d], benign_total);
      l1 += std::abs(measured_share - truth_share);
    }
    score.device_request_l1 = l1;
  }

  // Population marginal: realized client-class mix vs configured weights.
  std::map<std::string, double> realized;
  for (const auto& client : truth.clients) realized[client.profile_class] += 1.0;
  auto configured = truth.population_shares;
  normalize(realized);
  normalize(configured);
  score.class_population_l1 = l1_distance(realized, configured);

  // Industry marginal: distinct-domain share per industry vs the uniform
  // per-industry domain assignment the catalog is configured with.
  std::unordered_set<std::string> seen_domains;
  std::map<std::string, double> industry_domains;
  for (std::size_t k = 0; k < view.size(); ++k) {
    const std::string domain(table.domain(view[k]));
    if (!seen_domains.insert(domain).second) continue;
    const auto it = truth.industry_of_domain.find(domain);
    if (it != truth.industry_of_domain.end()) industry_domains[it->second] += 1.0;
  }
  std::map<std::string, double> uniform;
  std::unordered_set<std::string> industries;
  for (const auto& [domain, industry] : truth.industry_of_domain)
    industries.insert(industry);
  for (const auto& industry : industries) uniform[industry] = 1.0;
  normalize(industry_domains);
  normalize(uniform);
  score.industry_domain_l1 = l1_distance(industry_domains, uniform);
  return score;
}

}  // namespace jsoncdn::oracle
