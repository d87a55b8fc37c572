// One-pass periodicity triage: bounded per-flow inter-arrival state that
// emits *candidate* periodic flows, so the expensive FFT + permutation
// detector (core::analyze_periodicity, ~100 spectral passes per flow) runs
// on a small eligible subset instead of every object flow in the stream.
//
// The flow table is bounded: an internal Space-Saving sketch over flow keys
// is the admission policy — only the `max_flows` currently-heaviest flows
// carry detailed state (a sliding window over the heavy set; light flows
// can never pass the paper's >= 10-requests filter anyway, and a flow that
// falls out of the heavy set takes its state with it). Per-flow state is
// O(1): request count, first/last timestamp, mergeable inter-arrival
// moments (stats::RunningMoments), and a 256-bit linear-counting bitmap of
// client hashes for the paper's >= 10-distinct-clients filter.
//
// Candidates are flows passing the §5.1 eligibility filters plus a
// regularity screen (inter-arrival coefficient of variation and minimum
// span) mirroring the detector's own preconditions. The screen is a recall
// filter, not a detector: the FFT still decides periodicity.
//
// Flow keys arrive as dictionary symbols, as in SpaceSaving: bind() puts the
// admission sketch in a caller-owned Scratch, offer() keeps the states of the
// flows it sees there, indexed by symbol, and unbind() writes both back keyed
// by string. merge(), candidates() and memory_bytes() read the string-keyed
// state, so call them only while the triage is unbound.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "stats/descriptive.h"
#include "stats/hash.h"
#include "stream/spacesaving.h"

namespace jsoncdn::stream {

// The triage's own constants. Its eligibility filters are the batch
// pipeline's, logs::FlowFilter.
struct TriageConfig {
  static constexpr std::size_t max_flows = 4096;  // bounded flow table
  // Regularity screen: aggregate inter-arrival CV above this is too bursty
  // to be worth an FFT. Aggregates of phase-offset periodic clients land
  // well below it; single-burst spikes land far above.
  static constexpr double max_gap_cv = 2.5;
  // Mirrors the detector's "span > 4 * sample_interval" precondition.
  static constexpr double min_span_seconds = 5.0;
  // Bits of each flow's client-presence bitmap. A full bitmap proves this
  // many distinct clients and no more.
  static constexpr std::size_t client_bitmap_bits = 256;
};

struct CandidateFlow {
  std::string key;              // flow key (URL for object flows)
  std::uint64_t requests = 0;
  double span_seconds = 0.0;
  double mean_gap = 0.0;        // estimated period-ish scale
  double gap_cv = 0.0;
  double estimated_clients = 0.0;
  // Every bitmap bit is set: the flow has at least
  // TriageConfig::client_bitmap_bits distinct clients, and
  // estimated_clients is only the bitmap's ceiling.
  bool clients_saturated = false;
};

class InterarrivalTriage {
  struct FlowState {
    std::uint64_t requests = 0;
    double first_ts = 0.0;
    double last_ts = 0.0;
    stats::RunningMoments gaps;
    // Client-presence bitmap; distinct clients estimated by linear
    // counting. Saturates far above the >= 10 filter.
    std::array<std::uint64_t, TriageConfig::client_bitmap_bits / 64>
        client_bits{};

    void note_client(std::uint64_t client_hash) noexcept;
    [[nodiscard]] double estimated_clients() const noexcept;
    [[nodiscard]] bool clients_saturated() const noexcept;
  };
  using StateMap = std::unordered_map<std::string, FlowState,
                                      stats::TransparentStringHash,
                                      std::equal_to<>>;

 public:
  using Symbol = SpaceSaving::Symbol;

  // The working state of a triage bound to one dictionary: the admission
  // sketch's scratch and the states of the flows offered since bind(). A
  // flow tracked at bind() is copied in on its first offer and keeps its
  // entry in states_; a flow admitted since has none until unbind().
  class Scratch {
   private:
    friend class InterarrivalTriage;
    SpaceSaving::Scratch heavy_;
    std::vector<std::uint32_t> flow_of_;  // by bound symbol: slot in flows_
    std::vector<FlowState> flows_;
    std::vector<StateMap::iterator> homes_;  // by slot; end() if admitted
    std::vector<std::uint32_t> free_;        // slots of evicted flows
  };

  InterarrivalTriage();

  // Binds the triage to `dict` (which must not grow until unbind()).
  void bind(const logs::StringInterner& dict, Scratch& scratch);

  // Offers one request of flow `key` (a symbol of the bound dictionary) by
  // client `client_hash` at `timestamp`. Timestamps must be non-decreasing
  // within one triage instance (the log stream is time-sorted; shard
  // boundaries are handled by merge()).
  void offer(Scratch& scratch, Symbol key, std::uint64_t client_hash,
             double timestamp);

  // Writes the bound state back keyed by string.
  void unbind(Scratch& scratch);

  // Merges a later shard's state (chunk-ordered: `other` covers records
  // after this instance's records).
  void merge(const InterarrivalTriage& other);

  // Flows passing every filter, requests descending, key ascending on ties.
  [[nodiscard]] std::vector<CandidateFlow> candidates() const;

  [[nodiscard]] std::size_t tracked_flows() const noexcept {
    return states_.size();
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  // Drops the state of `key`, which heavy_ just evicted.
  void drop(Scratch& scratch, Symbol key);

  SpaceSaving heavy_;  // admission policy over flow keys
  // Keyed like heavy_: a flow has state exactly while heavy_ tracks it.
  StateMap states_;
};

}  // namespace jsoncdn::stream
