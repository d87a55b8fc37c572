// Origin (CDN customer infrastructure) model. Uncacheable requests and cache
// misses "propagate from the edge server through the CDN to origin content
// servers" (§4); the origin resolves object specs and charges a latency that
// the delivery metrics expose, so caching/prefetching improvements are
// visible end to end.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "faults/plan.h"
#include "workload/catalog.h"

namespace jsoncdn::cdn {

struct OriginResult {
  const workload::ObjectSpec* object = nullptr;  // nullptr => 404
  double latency_seconds = 0.0;
  std::uint64_t bytes = 0;
  // Health of the interaction. A healthy resolve is 200 (or 404 when the
  // object is unknown); an injected fault surfaces as a 5xx, a hung
  // connection (timed_out — latency is then the round trip already spent;
  // the edge charges its own timeout budget), or a truncated body (200 on
  // the wire but unusable).
  int status = 200;
  bool timed_out = false;
  bool truncated = false;

  [[nodiscard]] bool failed() const noexcept {
    return timed_out || truncated || status >= 500;
  }
};

// One cost model for every origin.
struct OriginParams {
  static constexpr double rtt_seconds = 0.080;  // edge <-> origin round trip
  static constexpr double bandwidth_bytes_per_s = 5e6;  // body transfer rate
  static constexpr double processing_seconds = 0.005;  // handling at origin
};

class Origin {
 public:
  explicit Origin(const workload::ObjectCatalog& catalog);

  // Optional fault injection: every fetch/revalidate consults the plan
  // (keyed by the object's domain). The plan outlives the origin; nullptr
  // or a disabled plan leaves behaviour exactly as before.
  void set_fault_plan(faults::FaultPlan* plan) noexcept { faults_ = plan; }

  // Resolves `url` at simulation time `now`; 404s still cost a round trip.
  [[nodiscard]] OriginResult fetch(std::string_view url,
                                   double now = 0.0) const;

  // Metadata lookup only — what the edge already knows about an object it
  // holds (or once held). No request is made; no cost is charged.
  [[nodiscard]] const workload::ObjectSpec* describe(
      std::string_view url) const {
    return catalog_.find(url);
  }

  // Conditional request (If-None-Match): validates the cached copy without
  // transferring the body. Objects in this simulator are immutable, so a
  // revalidation of an existing object always answers 304 — the cost is one
  // round trip plus processing, no transfer. Faults apply here too: a down
  // origin cannot answer 304 either.
  [[nodiscard]] OriginResult revalidate(std::string_view url,
                                        double now = 0.0) const;

  [[nodiscard]] std::uint64_t fetch_count() const noexcept { return fetches_; }
  [[nodiscard]] std::uint64_t bytes_served() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t faults_injected() const noexcept {
    return faulted_;
  }

 private:
  // Applies the fault plan's decision for this interaction to `result`.
  void apply_faults(OriginResult& result, std::string_view url,
                    double now) const;

  const workload::ObjectCatalog& catalog_;
  faults::FaultPlan* faults_ = nullptr;  // not owned; may be nullptr
  mutable std::uint64_t fetches_ = 0;
  mutable std::uint64_t bytes_ = 0;
  mutable std::uint64_t faulted_ = 0;
};

}  // namespace jsoncdn::cdn
