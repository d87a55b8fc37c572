#include "core/prefetch.h"

namespace jsoncdn::core {

NgramPrefetcher::NgramPrefetcher(NgramModel model,
                                 const PrefetcherParams& params)
    : model_(std::move(model)), params_(params) {}

void NgramPrefetcher::set_timing_model(InterarrivalModel timing) {
  timing_ = std::move(timing);
}

std::vector<std::string> NgramPrefetcher::candidates(
    const logs::LogRecord& served) {
  // Bound edge memory: drop all tracked histories when the table overflows.
  // (Real deployments would use an LRU; wholesale reset keeps the simulator
  // deterministic and the bound hard.)
  if (history_.size() > params_.max_tracked_clients) history_.clear();

  auto& hist = history_[served.client_key()];
  hist.push_back(served.url);
  while (hist.size() > params_.history_length) hist.pop_front();

  const std::vector<std::string> context(hist.begin(), hist.end());
  const auto predictions = model_.predict(context, params_.top_k);
  std::vector<std::string> out;
  out.reserve(predictions.size());
  for (const auto& p : predictions) {
    if (p.score < params_.min_score) continue;
    if (p.token == served.url) continue;  // already being served
    if (timing_.has_value()) {
      const auto gap = timing_->expected_gap(served.url, p.token);
      if (gap.has_value() && params_.max_expected_gap_seconds > 0.0 &&
          *gap > params_.max_expected_gap_seconds) {
        ++timing_filtered_;
        continue;
      }
    }
    out.push_back(p.token);
  }
  suggestions_ += out.size();
  return out;
}

NgramModel train_prefetch_model(const logs::TableView& view,
                                std::size_t context_len) {
  NgramModel model(context_len);
  for (const auto& flow : logs::extract_client_flows(
           view, NgramEvalConfig::min_flow_requests)) {
    std::vector<std::string> tokens;
    tokens.reserve(flow.record_indices.size());
    for (const auto idx : flow.record_indices)
      tokens.emplace_back(view.table().url(view[idx]));
    model.observe_sequence(tokens);
  }
  model.freeze();
  return model;
}

}  // namespace jsoncdn::core
