// Domain and object catalogs: the simulated CDN customer base.
//
// Each domain gets an industry category (Fig. 4), a cacheable-object share
// drawn from its category's mixture, and a catalog of concrete objects (JSON
// API endpoints, HTML pages, static subresources) with per-object
// content-type, size, cacheability, and TTL. The CDN simulator uses the
// object catalog as its origin database; the workload session models request
// objects from it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "http/method.h"
#include "http/mime.h"
#include "stats/distributions.h"
#include "stats/rng.h"
#include "workload/industry.h"

namespace jsoncdn::workload {

// A concrete servable object as the origin knows it.
struct ObjectSpec {
  std::string url;           // full URL (https://domain/path)
  std::string domain;
  http::ContentClass content = http::ContentClass::kJson;
  std::string content_type;  // header value served with the object
  bool cacheable = false;
  double ttl_seconds = 300.0;
  std::uint64_t body_bytes = 512;
};

// URL-keyed object lookup.
class ObjectCatalog {
 public:
  // Registers an object; returns a stable index. Re-registering the same URL
  // throws (catalog construction is programmatic, duplicates are bugs).
  std::size_t add(ObjectSpec spec);

  [[nodiscard]] const ObjectSpec* find(std::string_view url) const;
  [[nodiscard]] const ObjectSpec& at(std::size_t index) const;
  [[nodiscard]] std::size_t size() const noexcept { return objects_.size(); }
  [[nodiscard]] const std::vector<ObjectSpec>& objects() const noexcept {
    return objects_;
  }

 private:
  std::vector<ObjectSpec> objects_;
  std::unordered_map<std::string, std::size_t> by_url_;
};

// Response-size model parameters per content class. Central so the §4
// JSON-vs-HTML size comparison is tunable in one place.
[[nodiscard]] stats::BodySizeSampler::Params size_params(
    http::ContentClass content);

// Standard content-type header value for a class.
[[nodiscard]] std::string content_type_for(http::ContentClass content);

// One CDN customer domain.
struct DomainSpec {
  std::string name;              // e.g. "api.fin-003.example"
  Industry industry = Industry::kTechnology;
  double cacheable_share = 0.0;  // ground-truth share of cacheable objects
  double popularity_weight = 1.0;  // relative traffic volume
  // Indices into the shared ObjectCatalog, grouped by role.
  std::vector<std::size_t> json_objects;    // API endpoints (non-manifest)
  std::vector<std::size_t> html_objects;    // pages, for browser sessions
  std::vector<std::size_t> asset_objects;   // css/js/images
  std::optional<std::size_t> telemetry_object;  // POST beacon endpoint
  std::optional<std::size_t> poll_object;       // GET polling endpoint
  // Per-page fixed dependency lists (parallel to html_objects): the assets
  // and JSON XHRs each page references. Browser traffic is template-driven
  // — "a well known pattern that is derived from the HTML template" (§4) —
  // so the reference lists are a property of the page, not of the visit.
  std::vector<std::vector<std::size_t>> page_assets;
  std::vector<std::vector<std::size_t>> page_xhrs;
};

// The scenario presets size the customer base and the Fig. 1 model shifts
// JSON sizes; every domain has the same shape.
struct CatalogConfig {
  std::size_t domains_per_industry = 4;
  static constexpr std::size_t json_objects_per_domain = 30;
  static constexpr std::size_t html_objects_per_domain = 10;
  static constexpr std::size_t asset_objects_per_domain = 12;
  static constexpr double default_ttl_seconds = 3600.0;
  // Traffic skew across domains.
  static constexpr double domain_popularity_zipf_s = 0.55;
  // Additive shift of the JSON log-size mean; the Fig. 1 longitudinal model
  // uses a negative shift in later years ("average JSON response size has
  // decreased by around 28% since 2016", §4).
  double json_size_log_shift = 0.0;
};

// The full customer base: domains plus the shared object catalog.
class DomainCatalog {
 public:
  // Deterministically generates domains and objects from (config, rng).
  DomainCatalog(const CatalogConfig& config, stats::Rng rng);

  [[nodiscard]] const std::vector<DomainSpec>& domains() const noexcept {
    return domains_;
  }
  [[nodiscard]] const ObjectCatalog& objects() const noexcept {
    return objects_;
  }
  [[nodiscard]] ObjectCatalog& mutable_objects() noexcept { return objects_; }

  // Picks a domain index by popularity weight.
  [[nodiscard]] std::size_t sample_domain(stats::Rng& rng) const;
  // Indices of the k most popular domains, most popular first.
  [[nodiscard]] std::vector<std::size_t> top_domains(std::size_t k) const;

 private:
  std::vector<DomainSpec> domains_;
  ObjectCatalog objects_;
  std::vector<double> popularity_;
};

}  // namespace jsoncdn::workload
