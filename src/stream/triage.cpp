#include "stream/triage.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "logs/table.h"
#include "stats/rng.h"

namespace jsoncdn::stream {

namespace {

constexpr std::uint32_t kNoFlow = 0xffffffffu;

}  // namespace

void InterarrivalTriage::FlowState::note_client(
    std::uint64_t client_hash) noexcept {
  const std::uint64_t mixed = stats::splitmix64(client_hash);
  const auto bit =
      static_cast<std::size_t>(mixed % TriageConfig::client_bitmap_bits);
  client_bits[bit / 64] |= std::uint64_t{1} << (bit % 64);
}

double InterarrivalTriage::FlowState::estimated_clients() const noexcept {
  std::size_t set = 0;
  for (const auto word : client_bits) set += std::popcount(word);
  constexpr auto bits = TriageConfig::client_bitmap_bits;
  const auto m = static_cast<double>(bits);
  const auto zeros = static_cast<double>(bits - set);
  if (zeros <= 0.0) return m * std::log(m);  // saturated; far above filters
  return m * std::log(m / zeros);
}

bool InterarrivalTriage::FlowState::clients_saturated() const noexcept {
  return std::all_of(client_bits.begin(), client_bits.end(),
                     [](std::uint64_t word) { return word == ~0ULL; });
}

InterarrivalTriage::InterarrivalTriage() : heavy_(TriageConfig::max_flows) {
  states_.reserve(TriageConfig::max_flows);
}

void InterarrivalTriage::bind(const logs::StringInterner& dict,
                              Scratch& scratch) {
  heavy_.bind(dict, scratch.heavy_);
  if (scratch.flow_of_.size() < scratch.heavy_.symbols())
    scratch.flow_of_.resize(scratch.heavy_.symbols(), kNoFlow);
}

void InterarrivalTriage::offer(Scratch& scratch, Symbol key,
                               std::uint64_t client_hash, double timestamp) {
  const bool tracked = scratch.heavy_.tracks(key);
  const Symbol evicted = heavy_.offer(scratch.heavy_, key);
  if (evicted != SpaceSaving::kNoSymbol) drop(scratch, evicted);
  std::uint32_t& slot = scratch.flow_of_[key];
  if (slot == kNoFlow) {
    if (!scratch.free_.empty()) {
      slot = scratch.free_.back();
      scratch.free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(scratch.flows_.size());
      scratch.flows_.emplace_back();
      scratch.homes_.emplace_back();
    }
    auto& home = scratch.homes_[slot];
    home = tracked ? states_.find(scratch.heavy_.key(key)) : states_.end();
    scratch.flows_[slot] = tracked ? home->second : FlowState{};
  }
  FlowState& state = scratch.flows_[slot];
  if (!tracked) {
    state.first_ts = timestamp;
  } else {
    const double gap = timestamp - state.last_ts;
    if (gap >= 0.0) state.gaps.add(gap);
  }
  state.last_ts = timestamp;
  ++state.requests;
  state.note_client(client_hash);
}

void InterarrivalTriage::drop(Scratch& scratch, Symbol key) {
  std::uint32_t& slot = scratch.flow_of_[key];
  if (slot == kNoFlow) {
    states_.erase(states_.find(scratch.heavy_.key(key)));
    return;
  }
  if (scratch.homes_[slot] != states_.end())
    states_.erase(scratch.homes_[slot]);
  scratch.free_.push_back(slot);
  slot = kNoFlow;
}

void InterarrivalTriage::unbind(Scratch& scratch) {
  // states_ only lost entries since bind(), so the homes are still valid:
  // write them back before inserting the flows admitted since.
  const auto& heavy = scratch.heavy_;
  for (std::size_t i = 0; i < heavy.size(); ++i) {
    const std::uint32_t slot = scratch.flow_of_[heavy.symbol_at(i)];
    if (slot != kNoFlow && scratch.homes_[slot] != states_.end())
      scratch.homes_[slot]->second = scratch.flows_[slot];
  }
  for (std::size_t i = 0; i < heavy.size(); ++i) {
    std::uint32_t& slot = scratch.flow_of_[heavy.symbol_at(i)];
    if (slot == kNoFlow) continue;
    if (scratch.homes_[slot] == states_.end()) {
      states_.emplace(std::string(heavy.key(heavy.symbol_at(i))),
                      scratch.flows_[slot]);
    }
    slot = kNoFlow;
  }
  scratch.flows_.clear();
  scratch.homes_.clear();
  scratch.free_.clear();
  heavy_.unbind(scratch.heavy_);
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
    c.clients_saturated = state.clients_saturated();
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
