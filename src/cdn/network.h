// Multi-edge CDN network: maps clients to edge servers (sticky, hash-based —
// a stand-in for geographic request routing) and turns a workload event
// stream into the edge-log LogTable the analysis layer consumes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cdn/edge.h"
#include "cdn/origin.h"
#include "faults/plan.h"
#include "logs/anonymizer.h"
#include "logs/table.h"
#include "workload/catalog.h"
#include "workload/sessions.h"

namespace jsoncdn::cdn {

// The edge settings and the fault plan vary by caller; the topology and the
// log's pseudonym salt ("jsoncdn" in ASCII) are constants.
struct NetworkParams {
  // The paper's long-term capture used three vantage points.
  static constexpr std::size_t edge_count = 3;
  EdgeParams edge;
  static constexpr std::uint64_t anonymization_salt = 0x6a736f6e63646eULL;
  // Deterministic origin fault injection (disabled by default, in which case
  // the network behaves bit-identically to a fault-free build).
  faults::FaultPlanConfig faults;
};

class CdnNetwork {
 public:
  CdnNetwork(const workload::ObjectCatalog& catalog,
             const NetworkParams& params);

  // Routes every event to its edge, in order, and returns the logs as a
  // time-sorted table (stable: equal timestamps keep arrival order). The
  // rows are interned after the sort, so dictionaries are in first-seen
  // time order. `policy` is shared by all edges (may be nullptr).
  [[nodiscard]] logs::LogTable run(
      const std::vector<workload::RequestEvent>& events,
      PrefetchPolicy* policy = nullptr);

  // Aggregate metrics across all edges.
  [[nodiscard]] DeliveryMetrics total_metrics() const;
  // Aggregate resilience counters across all edges.
  [[nodiscard]] ResilienceMetrics total_resilience() const;
  // Aggregate human/machine delivery split (empty unless the overload
  // capacity model is on).
  [[nodiscard]] TwoClassDelivery total_two_class() const;
  // Every breaker state change on any edge, sorted by (time, edge, domain) —
  // the replayable incident timeline two identically-seeded runs must agree
  // on byte-for-byte.
  [[nodiscard]] std::vector<BreakerEvent> breaker_timeline() const;
  [[nodiscard]] const faults::FaultPlan& fault_plan() const noexcept {
    return fault_plan_;
  }
  [[nodiscard]] const std::vector<EdgeServer>& edges() const noexcept {
    return edges_;
  }
  [[nodiscard]] const Origin& origin() const noexcept { return origin_; }
  [[nodiscard]] const logs::Anonymizer& anonymizer() const noexcept {
    return anonymizer_;
  }

  // Sticky client -> edge mapping.
  [[nodiscard]] std::size_t edge_for(std::string_view client_address) const;

 private:
  faults::FaultPlan fault_plan_;
  Origin origin_;
  logs::Anonymizer anonymizer_;
  std::vector<EdgeServer> edges_;
};

}  // namespace jsoncdn::cdn
