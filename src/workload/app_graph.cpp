#include "workload/app_graph.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace jsoncdn::workload {

namespace {

// App endpoint vocabulary (the manifest is always "home").
constexpr const char* kEndpointNames[] = {
    "home",    "feed",     "article", "detail",  "media",   "profile",
    "search",  "comments", "related", "config",  "session", "recommend",
    "gallery", "summary",  "prices",  "history",
};

}  // namespace

AppGraph::AppGraph(const DomainSpec& domain, ObjectCatalog& catalog,
                   const AppGraphParams& params, stats::Rng rng)
    : domain_(domain.name) {
  auto json_params = size_params(http::ContentClass::kJson);
  json_params.log_mean += params.json_size_log_shift;
  stats::BodySizeSampler json_sizes(json_params);
  const std::string base = "https://" + domain_ + "/app/v1/";
  const std::size_t n = params.n_endpoints;
  constexpr std::size_t kNameCount = std::size(kEndpointNames);

  endpoints_.reserve(n);
  for (std::size_t e = 0; e < n; ++e) {
    Endpoint ep;
    std::string name{kEndpointNames[e % kNameCount]};
    if (e >= kNameCount) name += std::to_string(e / kNameCount);
    ep.path_base = base + name;
    // The manifest (endpoint 0) is always a plain GET; others may be
    // parameterized or be upload (POST) endpoints.
    if (e > 0) {
      ep.parameterized = rng.bernoulli(params.parameterized_share);
      if (!ep.parameterized && rng.bernoulli(params.post_endpoint_share)) {
        // Mostly POST; the occasional REST-ful PUT keeps the method mix
        // honest (the paper: 96% of non-GET requests are POST).
        ep.method = rng.bernoulli(0.2) ? http::Method::kPut
                                       : http::Method::kPost;
      }
    }

    const std::size_t url_count = ep.parameterized ? params.id_space : 1;
    ep.urls.reserve(url_count);
    for (std::size_t id = 0; id < url_count; ++id) {
      ObjectSpec obj;
      obj.url = ep.parameterized ? ep.path_base + "/" + std::to_string(1000 + id)
                                 : ep.path_base;
      obj.domain = domain_;
      obj.content = http::ContentClass::kJson;
      obj.content_type = content_type_for(obj.content);
      // POST endpoints are uncacheable by nature; GETs follow the domain's
      // cacheability share.
      obj.cacheable = ep.method == http::Method::kGet &&
                      rng.bernoulli(domain.cacheable_share);
      obj.ttl_seconds = 600.0;
      obj.body_bytes = json_sizes.sample(rng);
      catalog.add(obj);
      ep.urls.push_back(std::move(obj.url));
    }
    if (ep.parameterized) {
      stats::ZipfSampler zipf(params.id_space, params.id_zipf_s);
      ep.id_weights.resize(params.id_space);
      for (std::size_t id = 0; id < params.id_space; ++id)
        ep.id_weights[id] = zipf.pmf(id);
    }
    endpoints_.push_back(std::move(ep));
  }

  // Row-stochastic transition matrix: for each template, order the other
  // templates randomly, give the first U(lo,hi) mass, spread a geometric
  // "mid" group over the next few, and flatten the rest. Self-transitions
  // are allowed only for parameterized templates (article -> next article is
  // a real app pattern).
  transitions_.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t from = 0; from < n; ++from) {
    std::vector<std::size_t> targets;
    for (std::size_t to = 0; to < n; ++to) {
      if (to == from && !endpoints_[from].parameterized) continue;
      targets.push_back(to);
    }
    std::shuffle(targets.begin(), targets.end(), rng.engine());
    if (targets.size() == 1) {
      transitions_[from][targets[0]] = 1.0;
      continue;
    }
    const double top =
        rng.uniform(params.top_transition_lo, params.top_transition_hi);
    transitions_[from][targets[0]] = top;

    const std::size_t mid_count =
        std::min(params.mid_targets, targets.size() - 1);
    const std::size_t flat_count = targets.size() - 1 - mid_count;
    const double mid_mass =
        (1.0 - top) * (flat_count > 0 ? params.mid_share : 1.0);
    const double flat_mass = 1.0 - top - mid_mass;

    // Geometric weights inside the mid group, normalized exactly.
    double geo_norm = 0.0;
    for (std::size_t k = 0; k < mid_count; ++k)
      geo_norm += std::pow(params.transition_decay, static_cast<double>(k));
    for (std::size_t k = 0; k < mid_count; ++k) {
      transitions_[from][targets[1 + k]] =
          mid_mass *
          std::pow(params.transition_decay, static_cast<double>(k)) / geo_norm;
    }
    for (std::size_t k = 0; k < flat_count; ++k) {
      transitions_[from][targets[1 + mid_count + k]] =
          flat_mass / static_cast<double>(flat_count);
    }
  }
}

std::size_t AppGraph::next_template(std::size_t current,
                                    stats::Rng& rng) const {
  if (current >= endpoints_.size())
    throw std::out_of_range("AppGraph::next_template");
  return stats::weighted_choice(transitions_[current], rng);
}

const std::string& AppGraph::instantiate(std::size_t tmpl,
                                         stats::Rng& rng) const {
  if (tmpl >= endpoints_.size())
    throw std::out_of_range("AppGraph::instantiate");
  const auto& ep = endpoints_[tmpl];
  if (!ep.parameterized) return ep.urls.front();
  return ep.urls[stats::weighted_choice(ep.id_weights, rng)];
}

http::Method AppGraph::method_of(std::size_t tmpl) const {
  if (tmpl >= endpoints_.size()) throw std::out_of_range("AppGraph::method_of");
  return endpoints_[tmpl].method;
}

bool AppGraph::is_parameterized(std::size_t tmpl) const {
  if (tmpl >= endpoints_.size())
    throw std::out_of_range("AppGraph::is_parameterized");
  return endpoints_[tmpl].parameterized;
}

const std::vector<std::string>& AppGraph::urls_of(std::size_t tmpl) const {
  if (tmpl >= endpoints_.size()) throw std::out_of_range("AppGraph::urls_of");
  return endpoints_[tmpl].urls;
}

double AppGraph::oracle_top1_template_accuracy() const {
  // Stationary distribution by power iteration (rows are well-conditioned;
  // 200 iterations is far past convergence for n <= a few dozen).
  const std::size_t n = endpoints_.size();
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (int iter = 0; iter < 200; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        next[j] += pi[i] * transitions_[i][j];
    pi.swap(next);
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += pi[i] * *std::max_element(transitions_[i].begin(),
                                     transitions_[i].end());
  }
  return acc;
}

}  // namespace jsoncdn::workload
