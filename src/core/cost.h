// Serving-cost model for the §4 provisioning observation: "Reduced response
// sizes increase the CPU cost-per-byte of serving JSON traffic, since a
// large chunk of the total request cost (CPU, network, IO, ...) is tied to
// CPU request processing, which must be taken into account by network
// operators when provisioning the network."
//
// The model splits the cost of serving one request into a fixed per-request
// component (connection handling, parsing, cache lookup — CPU-bound) and
// per-byte components (network egress, storage IO). Aggregating over a log
// dataset per content class yields the cost-per-byte comparison the paper
// argues from: small JSON bodies amortize the fixed CPU cost over far fewer
// bytes than HTML/image traffic does.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "http/mime.h"
#include "logs/table.h"

namespace jsoncdn::core {

struct CostModel {
  // Abstract cost units; only ratios matter for provisioning comparisons.
  double cpu_per_request = 1.0;      // fixed request-processing cost
  double cpu_per_kilobyte = 0.02;    // body handling (checksums, TLS, copy)
  double network_per_kilobyte = 0.1; // egress
  double origin_per_request = 2.0;   // extra cost when tunneled to origin
};

struct ClassCost {
  http::ContentClass content = http::ContentClass::kOther;
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
  double cpu_cost = 0.0;
  double network_cost = 0.0;
  double origin_cost = 0.0;

  [[nodiscard]] double total_cost() const noexcept {
    return cpu_cost + network_cost + origin_cost;
  }
  // Cost per kilobyte served — the paper's provisioning metric.
  [[nodiscard]] double cost_per_kilobyte() const noexcept;
  // Share of this class's cost that is CPU-bound.
  [[nodiscard]] double cpu_share() const noexcept;
};

struct CostReport {
  std::vector<ClassCost> by_class;  // only classes with traffic, by cost desc
  double total_cost = 0.0;

  [[nodiscard]] const ClassCost* find(http::ContentClass content) const;
};

// Prices every row of the view under the model. Origin cost applies to
// rows that were tunneled or missed (anything not served from cache).
[[nodiscard]] CostReport analyze_costs(const logs::TableView& view,
                                       const CostModel& model = {});

// Text rendering for benches/examples.
[[nodiscard]] std::string render_costs(const CostReport& report);

}  // namespace jsoncdn::core
