#include "stream/triage.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "logs/table.h"
#include "stats/rng.h"

namespace jsoncdn::stream {

void InterarrivalTriage::FlowState::note_client(
    std::uint64_t client_hash) noexcept {
  const std::uint64_t mixed = stats::splitmix64(client_hash);
  const std::size_t bit = static_cast<std::size_t>(mixed & 0xff);
  client_bits[bit / 64] |= std::uint64_t{1} << (bit % 64);
}

double InterarrivalTriage::FlowState::estimated_clients() const noexcept {
  std::size_t set = 0;
  for (const auto word : client_bits) set += std::popcount(word);
  const double m = 256.0;
  const auto zeros = static_cast<double>(256 - set);
  if (zeros <= 0.0) return m * std::log(m);  // saturated; far above filters
  return m * std::log(m / zeros);
}

InterarrivalTriage::InterarrivalTriage() : heavy_(TriageConfig::max_flows) {
  states_.reserve(TriageConfig::max_flows);
}

void InterarrivalTriage::offer(std::string_view key,
                               std::uint64_t client_hash, double timestamp) {
  if (auto evicted = heavy_.offer(key)) states_.erase(*evicted);
  auto [it, inserted] = states_.try_emplace(std::string(key));
  FlowState& state = it->second;
  if (inserted) {
    state.first_ts = timestamp;
  } else {
    const double gap = timestamp - state.last_ts;
    if (gap >= 0.0) state.gaps.add(gap);
  }
  state.last_ts = timestamp;
  ++state.requests;
  state.note_client(client_hash);
}

void InterarrivalTriage::merge(const InterarrivalTriage& other) {
  heavy_.merge(other.heavy_);
  for (const auto& [key, theirs] : other.states_) {
    auto [it, inserted] = states_.try_emplace(key, theirs);
    if (inserted) continue;
    FlowState& mine = it->second;
    // `other` covers the later record range: stitch the boundary gap
    // between this shard's last request and the other's first.
    const double boundary = theirs.first_ts - mine.last_ts;
    mine.gaps.merge(theirs.gaps);
    if (boundary >= 0.0 && mine.requests > 0 && theirs.requests > 0)
      mine.gaps.add(boundary);
    mine.requests += theirs.requests;
    mine.first_ts = std::min(mine.first_ts, theirs.first_ts);
    mine.last_ts = std::max(mine.last_ts, theirs.last_ts);
    for (std::size_t w = 0; w < mine.client_bits.size(); ++w)
      mine.client_bits[w] |= theirs.client_bits[w];
  }
  // The merged heavy set is the admission authority: drop state for flows
  // that fell out of it.
  std::erase_if(states_, [&](const auto& entry) {
    return !heavy_.contains(entry.first);
  });
}

std::vector<CandidateFlow> InterarrivalTriage::candidates() const {
  using logs::FlowFilter;
  std::vector<CandidateFlow> out;
  for (const auto& [key, state] : states_) {
    if (state.requests < FlowFilter::min_client_flow_requests) continue;
    const double span = state.last_ts - state.first_ts;
    if (span < TriageConfig::min_span_seconds) continue;
    const double clients = state.estimated_clients();
    if (clients + 0.5 < static_cast<double>(FlowFilter::min_object_clients))
      continue;
    const double cv = state.gaps.coefficient_of_variation();
    if (cv > TriageConfig::max_gap_cv) continue;
    CandidateFlow c;
    c.key = key;
    c.requests = state.requests;
    c.span_seconds = span;
    c.mean_gap = state.gaps.mean();
    c.gap_cv = cv;
    c.estimated_clients = clients;
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(),
            [](const CandidateFlow& a, const CandidateFlow& b) {
              if (a.requests != b.requests) return a.requests > b.requests;
              return a.key < b.key;
            });
  return out;
}

std::size_t InterarrivalTriage::memory_bytes() const noexcept {
  std::size_t bytes = sizeof(*this) + heavy_.memory_bytes();
  for (const auto& [key, state] : states_)
    bytes += key.capacity() + sizeof(FlowState) + sizeof(void*) * 2;
  return bytes;
}

}  // namespace jsoncdn::stream
