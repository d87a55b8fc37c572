// Ngram-driven prefetching — the optimization §5.2 motivates: "a JSON
// request prediction system can be used by CDNs to perform prefetching for
// cacheable requests". The prefetcher keeps a short per-client history at
// the edge, asks the trained ngram model for likely next URLs, and warms the
// cache with the confident ones. Raw URLs are used (a clustered URL is not
// fetchable); GET-only, cacheable-only filtering happens in the edge server.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "cdn/edge.h"
#include "core/ngram.h"
#include "core/timing.h"

namespace jsoncdn::core {

// The two settings a shipped caller varies: bench/ablation_prefetch sweeps
// the confidence floor, bench/ablation_push_timing the horizon.
struct PrefetcherParams {
  static constexpr std::size_t top_k = 3;  // candidates per request
  double min_score = 0.05;                  // confidence floor
  // Per-client context kept at the edge, and the memory bound on clients.
  static constexpr std::size_t history_length = 4;
  static constexpr std::size_t max_tracked_clients = 100'000;
  // Interarrival horizon (only used when a timing model is attached): skip
  // candidates expected later than this — they would age out of the cache
  // before use. 0 disables the upper bound.
  double max_expected_gap_seconds = 600.0;
};

class NgramPrefetcher final : public cdn::PrefetchPolicy {
 public:
  // The model is owned by value: a trained model is moved in once and the
  // prefetcher is then self-contained at the edge.
  NgramPrefetcher(NgramModel model, const PrefetcherParams& params);

  // Attaches an interarrival model (§5.2 future work): candidates are then
  // filtered by their expected gap against the configured horizon.
  void set_timing_model(InterarrivalModel timing);

  [[nodiscard]] std::vector<std::string> candidates(
      const logs::LogRecord& served) override;

  [[nodiscard]] const NgramModel& model() const noexcept { return model_; }
  [[nodiscard]] std::uint64_t suggestions_made() const noexcept {
    return suggestions_;
  }
  [[nodiscard]] std::uint64_t timing_filtered() const noexcept {
    return timing_filtered_;
  }

 private:
  NgramModel model_;
  PrefetcherParams params_;
  std::optional<InterarrivalModel> timing_;
  std::unordered_map<std::string, std::deque<std::string>> history_;
  std::uint64_t suggestions_ = 0;
  std::uint64_t timing_filtered_ = 0;
};

// Convenience: train a raw-URL ngram model from a (typically historical)
// log view, one observation sequence per client flow of at least
// NgramEvalConfig::min_flow_requests requests. Returned frozen.
[[nodiscard]] NgramModel train_prefetch_model(const logs::TableView& view,
                                              std::size_t context_len = 1);

}  // namespace jsoncdn::core
