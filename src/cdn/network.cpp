#include "cdn/network.h"

#include <algorithm>
#include <numeric>

#include "stats/hash.h"

namespace jsoncdn::cdn {

CdnNetwork::CdnNetwork(const workload::ObjectCatalog& catalog,
                       const NetworkParams& params)
    : fault_plan_(params.faults),
      origin_(catalog),
      anonymizer_(params.anonymization_salt) {
  origin_.set_fault_plan(&fault_plan_);
  edges_.reserve(params.edge_count);
  for (std::size_t i = 0; i < params.edge_count; ++i) {
    edges_.emplace_back(static_cast<std::uint32_t>(i), origin_, anonymizer_,
                        params.edge);
  }
}

std::size_t CdnNetwork::edge_for(std::string_view client_address) const {
  return stats::fnv1a64(client_address) % edges_.size();
}

logs::LogTable CdnNetwork::run(
    const std::vector<workload::RequestEvent>& events,
    PrefetchPolicy* policy) {
  std::vector<logs::LogRecord> records;
  records.reserve(events.size());
  for (const auto& event : events) {
    auto& edge = edges_[edge_for(event.client_address)];
    records.push_back(edge.handle(event, policy));
  }
  // Stable time order by sorting indices rather than moving the records.
  std::vector<std::uint32_t> order(records.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&records](std::uint32_t a, std::uint32_t b) {
                     return records[a].timestamp < records[b].timestamp;
                   });
  logs::LogTable table;
  table.reserve(records.size());
  for (const auto i : order) table.append(records[i]);
  return table;
}

DeliveryMetrics CdnNetwork::total_metrics() const {
  DeliveryMetrics total;
  for (const auto& edge : edges_) total.merge(edge.metrics());
  return total;
}

ResilienceMetrics CdnNetwork::total_resilience() const {
  ResilienceMetrics total;
  for (const auto& edge : edges_) total.merge(edge.resilience());
  return total;
}

TwoClassDelivery CdnNetwork::total_two_class() const {
  TwoClassDelivery total;
  for (const auto& edge : edges_) total.merge(edge.two_class());
  return total;
}

std::vector<BreakerEvent> CdnNetwork::breaker_timeline() const {
  std::vector<BreakerEvent> events;
  for (const auto& edge : edges_) {
    auto per_edge = edge.breaker_timeline();
    events.insert(events.end(), per_edge.begin(), per_edge.end());
  }
  std::sort(events.begin(), events.end(),
            [](const BreakerEvent& a, const BreakerEvent& b) {
              if (a.transition.time != b.transition.time) {
                return a.transition.time < b.transition.time;
              }
              if (a.edge_id != b.edge_id) return a.edge_id < b.edge_id;
              return a.domain < b.domain;
            });
  return events;
}

}  // namespace jsoncdn::cdn
