// One-pass, bounded-memory streaming analytics over the edge-log stream.
//
// The batch pipeline (core::characterize_*, core::analyze_periodicity)
// materializes the full log in RAM; this layer ingests records one at a
// time and keeps only mergeable sketch state, so peak memory is a function
// of the sketch configuration — independent of record count — and a
// 35 M-record production stream fits the same footprint as a toy one.
//
// State per accumulator:
//   - exact integer counters where exactness is free: method mix,
//     cacheability, per-device request counts (core::MethodMix,
//     core::CacheabilityStats, core::SourceBreakdown request side);
//   - HyperLogLog for the distinct counts the §5.1 eligibility filters
//     need (URLs, clients, domains, UA strings per device);
//   - Count-Min + Space-Saving for heavy-hitter URLs / clients;
//   - a DDSketch-style quantile sketch + exact moments/min/max for the §4
//     JSON-vs-HTML body-size comparison;
//   - InterarrivalTriage emitting candidate periodic flows for the FFT
//     detector.
//
// Merge contract: StreamingAccumulator::merge(later) folds a shard covering
// a *later* contiguous record range into this one. Counter, CMS, HLL, and
// quantile state is bit-identical to a single-pass ingest for any shard
// partition; Space-Saving contents and triage state are deterministic for a
// fixed (chunk size, thread count) and keep their error guarantees for any
// partition. StreamingStudy::ingest shards each chunk across the PR-1
// stats::ThreadPool and merges in chunk order, so repeated runs with the
// same settings produce identical summaries.
//
// Hot path: an ingest call works on the table's u32 symbols. An IngestScratch
// per worker computes each per-string result (hashes, content and device
// classes) once per distinct symbol and holds the Space-Saving and triage
// state bound to the table's dictionaries; the call ends by writing that
// state back keyed by string, so merges and summaries never see a symbol.
#pragma once

#include <array>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/characterization.h"
#include "http/device_db.h"
#include "http/mime.h"
#include "logs/record.h"
#include "logs/table.h"
#include "stats/hash.h"
#include "stats/descriptive.h"
#include "stats/parallel.h"
#include "stream/countmin.h"
#include "stream/hyperloglog.h"
#include "stream/quantile.h"
#include "stream/spacesaving.h"
#include "stream/triage.h"

namespace jsoncdn::stream {

// The sketch geometry is constant (one value in use each); the triage's
// values are TriageConfig's.
struct StreamingConfig {
  // Count-Min error: estimates overshoot by <= cms_epsilon * N with
  // probability 1 - cms_delta.
  static constexpr double cms_epsilon = 5e-4;
  static constexpr double cms_delta = 1e-3;
  // Space-Saving counter budget; any key with count > N / heavy_hitters is
  // guaranteed tracked.
  static constexpr std::size_t heavy_hitters = 512;
  // HLL registers = 2^hll_precision; relative error ~1.04 / 2^(p/2).
  static constexpr unsigned hll_precision = 12;
  // Quantile relative-value error bound.
  static constexpr double quantile_alpha = 0.01;
  static constexpr std::size_t quantile_max_buckets = 4096;
  // Worker threads for chunk ingest: 0 = auto (JSONCDN_THREADS env, else
  // hardware_concurrency), same convention as every batch stage.
  std::size_t threads = 0;
};

// The streaming counterpart of the batch §4 results: same field shapes
// (core::MethodMix, core::CacheabilityStats, core::SourceBreakdown,
// stats::Summary) so callers and tests can compare the two directly.
struct StreamingSummary {
  std::uint64_t total_records = 0;
  std::uint64_t json_records = 0;
  double first_timestamp = 0.0;
  double last_timestamp = 0.0;

  // Exact (integer counters, bit-identical to the batch run over the same
  // records). SourceBreakdown's UA-string counters are the one exception:
  // they are HLL estimates, rounded.
  core::MethodMix methods;
  core::CacheabilityStats cacheability;
  // Status mix over the whole stream (not JSON-only) — exact, matches
  // core::characterize_status over the same records.
  core::StatusBreakdown status;
  core::SourceBreakdown source;

  // HLL cardinality estimates with the configured standard error.
  double distinct_urls = 0.0;
  double distinct_clients = 0.0;
  double distinct_domains = 0.0;
  double distinct_ua_strings = 0.0;
  double hll_standard_error = 0.0;

  // Heavy hitters (Space-Saving estimates; count - error <= true <= count).
  std::vector<HeavyHitter> top_urls;
  std::vector<HeavyHitter> top_clients;
  double heavy_hitter_error_bound = 0.0;  // N / heavy_hitters

  // §4 size comparison: count/mean/stddev/min/max exact, percentiles from
  // the quantile sketch (relative error <= quantile_alpha).
  stats::Summary json_sizes;
  stats::Summary html_sizes;
  double quantile_alpha = 0.0;

  // Flows worth running the FFT + permutation detector on.
  std::vector<CandidateFlow> periodic_candidates;

  // Total sketch-state footprint at snapshot time — the number that stays
  // put as the record count grows.
  std::size_t memory_bytes = 0;

  [[nodiscard]] double json_html_p50_ratio() const noexcept {
    return html_sizes.p50 == 0.0 ? 0.0 : json_sizes.p50 / html_sizes.p50;
  }
  [[nodiscard]] double json_html_p75_ratio() const noexcept {
    return html_sizes.p75 == 0.0 ? 0.0 : json_sizes.p75 / html_sizes.p75;
  }
};

// A worker's working memory for StreamingAccumulator::ingest, keyed by the
// symbols of the call's table: each per-string result is computed once per
// distinct symbol per call, and the heavy-hitter and triage sketches keep
// their bound state here. Every ingest() leaves it reset in O(symbols
// touched), so one scratch serves a worker's calls whatever table each
// passes. It is not sketch state: memory_bytes() leaves it out.
class IngestScratch {
 private:
  friend class StreamingAccumulator;
  using Symbol = logs::LogTable::Symbol;

  // One value per symbol of a dictionary, computed on first use.
  template <typename T>
  class PerSymbol {
   public:
    void reserve(std::size_t symbols) {
      if (cells_.size() < symbols) cells_.resize(symbols);
    }
    template <typename Compute>
    const T& get(Symbol s, Compute&& compute) {
      Cell& cell = cells_[s];
      if (!cell.known) {
        cell.value = compute();
        cell.known = true;
        used_.push_back(s);
      }
      return cell.value;
    }
    void reset() noexcept {
      for (const Symbol s : used_) cells_[s].known = false;
      used_.clear();
    }

   private:
    struct Cell {
      T value{};
      bool known = false;
    };
    std::vector<Cell> cells_;
    std::vector<Symbol> used_;
  };

  struct UserAgent {
    http::DeviceClassification cls;
    std::uint64_t hash = 0;  // unused when missing
    bool missing = false;
  };

  // Sizes the per-symbol caches for `table`'s dictionaries.
  void reserve(const logs::LogTable& table);
  // Forgets every cached value, in O(symbols used).
  void reset() noexcept;

  PerSymbol<http::ContentClass> content_;
  PerSymbol<UserAgent> user_agent_;
  PerSymbol<std::uint64_t> url_hash_;
  PerSymbol<std::uint64_t> client_hash_;
  PerSymbol<std::uint64_t> domain_hash_;
  SpaceSaving::Scratch top_urls_;
  SpaceSaving::Scratch top_clients_;
  InterarrivalTriage::Scratch triage_;
};

// Full per-shard sketch state. ingest() consumes table rows; merge() folds a
// shard covering a later row range (see the file comment for the
// determinism contract).
class StreamingAccumulator {
 public:
  StreamingAccumulator();

  // Offers `rows` of `table` in span order. Fields stream out of the table's
  // columns, and the interned client-key dictionary replaces a per-record
  // concatenation.
  void ingest(const logs::LogTable& table,
              std::span<const logs::LogTable::RowIndex> rows,
              IngestScratch& scratch);
  void merge(const StreamingAccumulator& later);

  [[nodiscard]] StreamingSummary summarize() const;
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  std::uint64_t total_records_ = 0;
  std::uint64_t json_records_ = 0;
  double first_ts_ = std::numeric_limits<double>::infinity();
  double last_ts_ = -std::numeric_limits<double>::infinity();

  core::MethodMix methods_;
  core::CacheabilityStats cacheability_;
  core::StatusBreakdown status_;
  core::SourceBreakdown source_;  // request-side counters only

  HyperLogLog urls_;
  HyperLogLog clients_;
  HyperLogLog domains_;
  HyperLogLog ua_strings_;
  std::array<HyperLogLog, 4> ua_by_device_;

  CountMinSketch url_counts_;
  CountMinSketch client_counts_;
  SpaceSaving top_urls_;
  SpaceSaving top_clients_;

  QuantileSketch json_sizes_;
  QuantileSketch html_sizes_;
  stats::RunningMoments json_moments_;
  stats::RunningMoments html_moments_;
  double json_min_ = std::numeric_limits<double>::infinity();
  double json_max_ = -std::numeric_limits<double>::infinity();
  double html_min_ = std::numeric_limits<double>::infinity();
  double html_max_ = -std::numeric_limits<double>::infinity();

  InterarrivalTriage triage_;

  void offer(const logs::LogTable& table, logs::LogTable::RowIndex row,
             IngestScratch& scratch);
  [[nodiscard]] http::DeviceClassification device_class(
      std::string_view user_agent);

  // Per-accumulator UA classification cache (same trick as the batch
  // characterize_source); bounded so adversarial UA floods cannot grow it.
  // Transparent hashing: lookups by string_view never allocate.
  std::unordered_map<std::string, http::DeviceClassification,
                     stats::TransparentStringHash, std::equal_to<>>
      ua_cache_;
};

// One-pass study over chunks of table rows; each chunk is sharded across
// the thread pool and merged in chunk order.
class StreamingStudy {
 public:
  explicit StreamingStudy(const StreamingConfig& config = {});

  // Ingests `rows` of `table` (in span order) as one chunk. The shard
  // geometry depends only on the chunk size and thread count, so a log
  // streamed with the same chunk size and thread count yields an identical
  // summary whether its chunks come from memory or from a .jlog v2 scan.
  void ingest(const logs::LogTable& table,
              std::span<const logs::LogTable::RowIndex> rows);

  [[nodiscard]] StreamingSummary summary() const { return state_.summarize(); }
  [[nodiscard]] std::uint64_t records_ingested() const noexcept {
    return ingested_;
  }

 private:
  std::size_t threads_;
  stats::ThreadPool pool_;
  StreamingAccumulator state_;
  std::vector<IngestScratch> scratch_;  // one per worker shard
  std::uint64_t ingested_ = 0;
};

// Plain-text rendering in the report.h house style, with the paper's §4/§5
// headline numbers next to their streaming estimates.
[[nodiscard]] std::string render_streaming_summary(
    const StreamingSummary& summary, std::size_t top_n = 10);

}  // namespace jsoncdn::stream
