// Edge server: the component whose request logs the paper analyzes. Each
// incoming request is resolved against the customer's cacheability config
// and the edge cache, fetched from origin when needed, logged, and measured.
// An optional prefetch policy (implemented in core/prefetch on top of the
// ngram model) is consulted after every served request.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cdn/cache.h"
#include "cdn/metrics.h"
#include "cdn/origin.h"
#include "cdn/overload.h"
#include "faults/breaker.h"
#include "faults/retry.h"
#include "logs/anonymizer.h"
#include "logs/record.h"
#include "workload/sessions.h"

namespace jsoncdn::cdn {

// Interface the edge consults after serving a request. Implementations
// return URLs to warm into the cache.
class PrefetchPolicy {
 public:
  virtual ~PrefetchPolicy() = default;
  [[nodiscard]] virtual std::vector<std::string> candidates(
      const logs::LogRecord& served) = 0;
};

// How the edge absorbs origin failures — the mechanisms real CDNs layer in
// front of unreliable customer infrastructure: bounded retry with backoff
// (faults::RetryConfig), a per-origin circuit breaker
// (faults::BreakerConfig), RFC 5861 stale-if-error and negative caching.
// All of them are inert when no fault plan is active (an origin that never
// fails never triggers them), so they do not perturb fault-free runs. One
// policy serves every edge (DESIGN §7).
struct ResilienceParams {
  // Per-attempt budget charged when the origin connection hangs.
  static constexpr double timeout_seconds = 1.0;
  // Stale-if-error: when the origin fails, an expired cached copy no more
  // than this far past its TTL is served instead of the error.
  static constexpr double stale_if_error_seconds = 600.0;
  // Negative caching: an origin failure is remembered this long, so repeat
  // requests during an incident fail fast (or serve stale) without another
  // origin round trip.
  static constexpr double negative_ttl_seconds = 5.0;
};

// Besides the overload controller's settings, the three a shipped caller
// varies: bench/ablation_cache_size sets the cache size and revalidation,
// bench/ablation_push_timing turns on push. The other edge values are
// constants.
struct EdgeParams {
  std::uint64_t cache_capacity_bytes = 512ULL * 1024 * 1024;
  static constexpr double client_rtt_seconds = 0.020;  // client <-> edge
  static constexpr double edge_bandwidth_bytes_per_s = 10e6;
  static constexpr std::size_t max_prefetches_per_request = 3;
  // HTTP Server Push (the other delivery mechanism Section 5.2 proposes):
  // besides warming the edge cache, speculatively send predicted responses
  // to the requesting client. A later request covered by a fresh pushed
  // copy is answered from the client's buffer — no edge round trip.
  bool enable_push = false;
  static constexpr double push_validity_seconds = 30.0;
  static constexpr std::size_t max_pushes_per_request = 2;
  // Conditional revalidation: when a cached copy is merely stale, ask the
  // origin to validate it (If-None-Match -> 304) instead of re-transferring
  // the body. Cheaper than a full miss; logged as REFRESH.
  bool enable_revalidation = false;
  // Push-table hygiene: expired entries are swept once the table exceeds
  // `push_table_sweep_entries`, or when `push_table_sweep_seconds` of
  // simulated time has passed since the last sweep — whichever comes first.
  // Both triggers depend only on event time and table size, so sweeps replay
  // identically; sweeping only drops entries that could no longer be used.
  static constexpr std::size_t push_table_sweep_entries = 200'000;
  static constexpr double push_table_sweep_seconds = 300.0;
  // Admission control, rate limiting, and load shedding. Inert by default
  // (model_capacity == false): the edge behaves bit-identically to builds
  // that predate overload protection.
  OverloadParams overload;
};

class EdgeServer {
 public:
  EdgeServer(std::uint32_t id, const Origin& origin,
             const logs::Anonymizer& anonymizer, const EdgeParams& params);

  // Serves one request at its event time and returns the log record.
  // `policy` may be nullptr (no prefetching).
  [[nodiscard]] logs::LogRecord handle(const workload::RequestEvent& event,
                                       PrefetchPolicy* policy = nullptr);

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] const DeliveryMetrics& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const ResilienceMetrics& resilience() const noexcept {
    return resilience_;
  }
  // Human/machine delivery split; empty unless overload.model_capacity.
  [[nodiscard]] const TwoClassDelivery& two_class() const noexcept {
    return two_class_;
  }
  [[nodiscard]] const LruCache& cache() const noexcept { return cache_; }
  // Live push-table entries (sweep instrumentation; tests assert the bound).
  [[nodiscard]] std::size_t push_table_size() const noexcept {
    return pushed_.size();
  }

  // Every breaker state change on this edge, sorted by (time, domain).
  [[nodiscard]] std::vector<BreakerEvent> breaker_timeline() const;

 private:
  // One logical origin interaction: breaker gate, then up to
  // 1 + RetryConfig::max_retries attempts with backoff. `latency` accumulates
  // the origin-side time spent (failed attempts, backoff, timeout budgets).
  struct OriginOutcome {
    OriginResult result;
    double latency = 0.0;
    bool success = false;
    int status = 503;           // client-facing status on failure
    bool short_circuited = false;  // breaker refused; origin untouched
  };
  OriginOutcome contact_origin(const std::string& url,
                               const std::string& domain, double now,
                               bool revalidate_only);

  // The pre-overload request path: cache/origin resolution for an admitted
  // request. `queue_wait` (simulated time spent waiting for a worker) is
  // added to every client-perceived latency.
  [[nodiscard]] logs::LogRecord serve(const workload::RequestEvent& event,
                                      PrefetchPolicy* policy,
                                      double queue_wait);

  // Cached two-class split (machine_class() parses the UA once per string).
  [[nodiscard]] bool is_machine(const std::string& user_agent);

  void maybe_prefetch(const logs::LogRecord& served, PrefetchPolicy* policy,
                      double now);

  std::uint32_t id_;
  const Origin& origin_;
  const logs::Anonymizer& anonymizer_;
  EdgeParams params_;
  LruCache cache_;
  DeliveryMetrics metrics_;
  ResilienceMetrics resilience_;
  // Per-origin-domain breakers; ordered so iteration (and therefore the
  // reported timeline) is deterministic.
  std::map<std::string, faults::CircuitBreaker> breakers_;
  // url -> remembered origin failure (negative cache).
  struct NegativeEntry {
    double expires_at = 0.0;
    int status = 503;
  };
  std::unordered_map<std::string, NegativeEntry> negative_cache_;
  // URLs currently in cache because of a prefetch, not yet used.
  std::unordered_set<std::string> pending_prefetches_;
  // (client_key \x1f url) -> push expiry time.
  std::unordered_map<std::string, double> pushed_;
  // Simulated time of the last push-table sweep.
  double last_push_sweep_ = 0.0;
  // Overload protection state and per-class delivery accounting.
  OverloadController overload_;
  TwoClassDelivery two_class_;
  std::unordered_map<std::string, bool> ua_machine_;
};

}  // namespace jsoncdn::cdn
