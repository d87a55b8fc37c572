#include "core/timing.h"

#include <algorithm>
#include <stdexcept>

namespace jsoncdn::core {

void GapStats::add(double gap) {
  if (count == 0) {
    min = gap;
    max = gap;
  } else {
    min = std::min(min, gap);
    max = std::max(max, gap);
  }
  ++count;
  const double delta = gap - mean;
  mean += delta / static_cast<double>(count);
  m2 += delta * (gap - mean);
}

std::string InterarrivalModel::key(std::string_view from,
                                   std::string_view to) {
  std::string out;
  out.reserve(from.size() + to.size() + 1);
  out.append(from);
  out.push_back('\x1f');  // unit separator: cannot appear in URLs
  out.append(to);
  return out;
}

void InterarrivalModel::observe(std::string_view from, std::string_view to,
                                double gap) {
  if (gap < 0.0)
    throw std::invalid_argument("InterarrivalModel::observe: negative gap");
  transitions_[key(from, to)].add(gap);
  by_source_[std::string(from)].add(gap);
  global_.add(gap);
  ++observations_;
}

void InterarrivalModel::observe_dataset(const logs::TableView& view,
                                        std::size_t min_flow_requests) {
  const auto& table = view.table();
  for (const auto& flow :
       logs::extract_client_flows(view, min_flow_requests)) {
    for (std::size_t i = 1; i < flow.record_indices.size(); ++i) {
      const auto prev = view[flow.record_indices[i - 1]];
      const auto next = view[flow.record_indices[i]];
      const double gap =
          std::max(0.0, table.timestamp(next) - table.timestamp(prev));
      observe(table.url(prev), table.url(next), gap);
    }
  }
}

const GapStats* InterarrivalModel::stats_for(std::string_view from,
                                             std::string_view to) const {
  const auto it = transitions_.find(key(from, to));
  return it == transitions_.end() ? nullptr : &it->second;
}

std::optional<double> InterarrivalModel::expected_gap(
    std::string_view from, std::string_view to) const {
  if (const auto* stats = stats_for(from, to)) return stats->mean;
  if (const auto it = by_source_.find(std::string(from));
      it != by_source_.end()) {
    return it->second.mean;
  }
  if (global_.count > 0) return global_.mean;
  return std::nullopt;
}

}  // namespace jsoncdn::core
