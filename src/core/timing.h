// Interarrival-aware request prediction — the paper's §5.2 future work:
// "future work can also take into account request interarrival time to
// better inform prediction systems".
//
// InterarrivalModel learns, per (previous URL -> next URL) transition, the
// distribution of the gap between the two requests (streaming mean/variance
// plus min/max). A prefetcher can then act only on predictions whose
// expected gap fits its horizon: warming an object the client will want in
// 40 minutes is wasted cache space if the entry's TTL is 10 minutes, and an
// object wanted in 80 ms cannot be fetched from origin in time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "logs/table.h"

namespace jsoncdn::core {

// Streaming gap statistics (Welford's algorithm: numerically stable single
// pass, O(1) memory per transition).
struct GapStats {
  std::uint64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;  // sum of squared deviations
  double min = 0.0;
  double max = 0.0;

  void add(double gap);
  [[nodiscard]] double variance() const noexcept {
    return count < 2 ? 0.0 : m2 / static_cast<double>(count - 1);
  }
};

class InterarrivalModel {
 public:
  // Records one observed transition with its gap (seconds, >= 0).
  void observe(std::string_view from, std::string_view to, double gap);

  // Trains from the per-client flows of a log view: every consecutive
  // request pair contributes one observation.
  void observe_dataset(const logs::TableView& view,
                       std::size_t min_flow_requests = 2);

  // Gap statistics for a transition, if it was ever observed.
  [[nodiscard]] const GapStats* stats_for(std::string_view from,
                                          std::string_view to) const;
  // Expected gap, falling back to the per-source mean, then to the global
  // mean; nullopt when nothing at all was observed.
  [[nodiscard]] std::optional<double> expected_gap(std::string_view from,
                                                   std::string_view to) const;

  [[nodiscard]] std::uint64_t observations() const noexcept {
    return observations_;
  }
  [[nodiscard]] std::size_t transition_count() const noexcept {
    return transitions_.size();
  }

 private:
  static std::string key(std::string_view from, std::string_view to);

  std::unordered_map<std::string, GapStats> transitions_;
  std::unordered_map<std::string, GapStats> by_source_;
  GapStats global_;
  std::uint64_t observations_ = 0;
};

}  // namespace jsoncdn::core
