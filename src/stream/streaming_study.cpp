#include "stream/streaming_study.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "stats/hash.h"

namespace jsoncdn::stream {

namespace {

constexpr std::size_t device_index(http::DeviceType d) noexcept {
  return static_cast<std::size_t>(d);
}

// UA classification cache cap: far above any real UA corpus, but bounded so
// a flood of unique garbage UAs cannot grow the accumulator unboundedly.
constexpr std::size_t kUaCacheCap = 8192;

}  // namespace

StreamingAccumulator::StreamingAccumulator()
    : urls_(StreamingConfig::hll_precision),
      clients_(StreamingConfig::hll_precision),
      domains_(StreamingConfig::hll_precision),
      ua_strings_(StreamingConfig::hll_precision),
      ua_by_device_{HyperLogLog(StreamingConfig::hll_precision),
                    HyperLogLog(StreamingConfig::hll_precision),
                    HyperLogLog(StreamingConfig::hll_precision),
                    HyperLogLog(StreamingConfig::hll_precision)},
      url_counts_(StreamingConfig::cms_epsilon, StreamingConfig::cms_delta,
                  /*seed=*/0x0415),
      client_counts_(StreamingConfig::cms_epsilon, StreamingConfig::cms_delta,
                     /*seed=*/0x0416),
      top_urls_(StreamingConfig::heavy_hitters),
      top_clients_(StreamingConfig::heavy_hitters),
      json_sizes_(StreamingConfig::quantile_alpha,
                  StreamingConfig::quantile_max_buckets),
      html_sizes_(StreamingConfig::quantile_alpha,
                  StreamingConfig::quantile_max_buckets) {}

void IngestScratch::reserve(const logs::LogTable& table) {
  content_.reserve(table.content_types().size());
  user_agent_.reserve(table.user_agents().size());
  url_hash_.reserve(table.urls().size());
  client_hash_.reserve(table.client_keys().size());
  domain_hash_.reserve(table.domains().size());
}

void IngestScratch::reset() noexcept {
  content_.reset();
  user_agent_.reset();
  url_hash_.reset();
  client_hash_.reset();
  domain_hash_.reset();
}

void StreamingAccumulator::ingest(
    const logs::LogTable& table,
    std::span<const logs::LogTable::RowIndex> rows, IngestScratch& scratch) {
  scratch.reserve(table);
  top_urls_.bind(table.urls(), scratch.top_urls_);
  top_clients_.bind(table.client_keys(), scratch.top_clients_);
  triage_.bind(table.urls(), scratch.triage_);
  for (const auto row : rows) offer(table, row, scratch);
  triage_.unbind(scratch.triage_);
  top_clients_.unbind(scratch.top_clients_);
  top_urls_.unbind(scratch.top_urls_);
  scratch.reset();
}

http::DeviceClassification StreamingAccumulator::device_class(
    std::string_view user_agent) {
  if (const auto it = ua_cache_.find(user_agent); it != ua_cache_.end())
    return it->second;
  const auto cls = http::classify_device(user_agent);
  if (ua_cache_.size() < kUaCacheCap)
    ua_cache_.emplace(std::string(user_agent), cls);
  return cls;
}

void StreamingAccumulator::offer(const logs::LogTable& table,
                                 logs::LogTable::RowIndex row,
                                 IngestScratch& scratch) {
  const double timestamp = table.timestamp(row);
  ++total_records_;
  first_ts_ = std::min(first_ts_, timestamp);
  last_ts_ = std::max(last_ts_, timestamp);

  // §4 size comparison runs over the full stream (all content types).
  const auto content = scratch.content_.get(table.content_type_sym(row), [&] {
    return http::classify_content(table.content_type(row));
  });
  const auto bytes = static_cast<double>(table.response_bytes(row));
  if (content == http::ContentClass::kJson) {
    json_sizes_.add(bytes);
    json_moments_.add(bytes);
    json_min_ = std::min(json_min_, bytes);
    json_max_ = std::max(json_max_, bytes);
  } else if (content == http::ContentClass::kHtml) {
    html_sizes_.add(bytes);
    html_moments_.add(bytes);
    html_min_ = std::min(html_min_, bytes);
    html_max_ = std::max(html_max_, bytes);
  }

  // Status mix is a delivery-health view over the whole stream (exact
  // counters, mirroring core::characterize_status record for record).
  const int status = table.status(row);
  const auto cache_status = table.cache_status(row);
  ++status_.total;
  if (status >= 500) {
    ++status_.server_error_5xx;
    if (status == 504) ++status_.gateway_timeout_504;
  } else if (status >= 400) {
    ++status_.client_error_4xx;
  } else if (status >= 300) {
    ++status_.redirect_3xx;
  } else if (status >= 200) {
    ++status_.ok_2xx;
  }
  if (cache_status == logs::CacheStatus::kStale) ++status_.stale_served;
  if (cache_status == logs::CacheStatus::kError)
    ++status_.error_cache_status;
  if (cache_status == logs::CacheStatus::kShed) ++status_.shed;
  if (cache_status == logs::CacheStatus::kThrottled) ++status_.throttled;

  // Everything below mirrors the batch pipeline's JSON-only analyses.
  if (content != http::ContentClass::kJson) return;
  ++json_records_;

  ++methods_.total;
  switch (table.method(row)) {
    case http::Method::kGet: ++methods_.get; break;
    case http::Method::kPost: ++methods_.post; break;
    default: ++methods_.other; break;
  }

  // Same rules as core::characterize_cacheability: ERROR carries no
  // cacheability signal, STALE is a hit served from CDN storage.
  switch (cache_status) {
    case logs::CacheStatus::kError:
    case logs::CacheStatus::kShed:
    case logs::CacheStatus::kThrottled:
      break;
    case logs::CacheStatus::kNotCacheable:
      ++cacheability_.uncacheable;
      break;
    case logs::CacheStatus::kHit:
    case logs::CacheStatus::kStale:
      ++cacheability_.cacheable;
      ++cacheability_.hits;
      break;
    case logs::CacheStatus::kMiss:
    case logs::CacheStatus::kRefreshHit:
      ++cacheability_.cacheable;
      break;
  }

  // Classified on the UA's first JSON row of the call, so ua_cache_ sees the
  // same lookups in the same order as a per-row classification would.
  const auto& ua = scratch.user_agent_.get(table.user_agent_sym(row), [&] {
    const std::string_view text = table.user_agent(row);
    return IngestScratch::UserAgent{device_class(text), stats::fnv1a64(text),
                                    text.empty()};
  });
  ++source_.total_requests;
  ++source_.requests_by_device[device_index(ua.cls.device)];
  if (ua.cls.is_browser()) {
    ++source_.browser_requests;
    if (ua.cls.device == http::DeviceType::kMobile)
      ++source_.mobile_browser_requests;
  }
  if (ua.missing) {
    ++source_.missing_ua_requests;
  } else {
    ua_strings_.add(ua.hash);
    ua_by_device_[device_index(ua.cls.device)].add(ua.hash);
  }

  const auto url = table.url_sym(row);
  const auto client = table.client_sym(row);
  const std::uint64_t url_hash = scratch.url_hash_.get(
      url, [&] { return stats::fnv1a64(table.url(row)); });
  const std::uint64_t client_hash = scratch.client_hash_.get(
      client, [&] { return stats::fnv1a64(table.client_key(row)); });
  urls_.add(url_hash);
  clients_.add(client_hash);
  domains_.add(scratch.domain_hash_.get(table.domain_sym(row), [&] {
    return stats::fnv1a64(table.domain(row));
  }));
  url_counts_.add(url_hash);
  client_counts_.add(client_hash);
  top_urls_.offer(scratch.top_urls_, url);
  top_clients_.offer(scratch.top_clients_, client);
  triage_.offer(scratch.triage_, url, client_hash, timestamp);
}

void StreamingAccumulator::merge(const StreamingAccumulator& later) {
  total_records_ += later.total_records_;
  json_records_ += later.json_records_;
  first_ts_ = std::min(first_ts_, later.first_ts_);
  last_ts_ = std::max(last_ts_, later.last_ts_);

  methods_.merge(later.methods_);
  cacheability_.merge(later.cacheability_);
  status_.merge(later.status_);
  source_.merge(later.source_);

  urls_.merge(later.urls_);
  clients_.merge(later.clients_);
  domains_.merge(later.domains_);
  ua_strings_.merge(later.ua_strings_);
  for (std::size_t d = 0; d < ua_by_device_.size(); ++d)
    ua_by_device_[d].merge(later.ua_by_device_[d]);

  url_counts_.merge(later.url_counts_);
  client_counts_.merge(later.client_counts_);
  top_urls_.merge(later.top_urls_);
  top_clients_.merge(later.top_clients_);

  json_sizes_.merge(later.json_sizes_);
  html_sizes_.merge(later.html_sizes_);
  json_moments_.merge(later.json_moments_);
  html_moments_.merge(later.html_moments_);
  json_min_ = std::min(json_min_, later.json_min_);
  json_max_ = std::max(json_max_, later.json_max_);
  html_min_ = std::min(html_min_, later.html_min_);
  html_max_ = std::max(html_max_, later.html_max_);

  triage_.merge(later.triage_);

  for (const auto& [ua, cls] : later.ua_cache_) {
    if (ua_cache_.size() >= kUaCacheCap) break;
    ua_cache_.emplace(ua, cls);
  }
}

namespace {

stats::Summary summary_from_sketch(const QuantileSketch& sketch,
                                   const stats::RunningMoments& moments,
                                   double min_value, double max_value) {
  stats::Summary s;
  s.count = moments.count();
  if (s.count == 0) return s;
  s.mean = moments.mean();
  s.stddev = moments.stddev();
  s.min = min_value;
  s.max = max_value;
  s.p25 = sketch.quantile(0.25);
  s.p50 = sketch.quantile(0.50);
  s.p75 = sketch.quantile(0.75);
  s.p90 = sketch.quantile(0.90);
  s.p99 = sketch.quantile(0.99);
  return s;
}

}  // namespace

StreamingSummary StreamingAccumulator::summarize() const {
  StreamingSummary out;
  out.total_records = total_records_;
  out.json_records = json_records_;
  out.first_timestamp = total_records_ == 0 ? 0.0 : first_ts_;
  out.last_timestamp = total_records_ == 0 ? 0.0 : last_ts_;

  out.methods = methods_;
  out.cacheability = cacheability_;
  out.status = status_;
  out.source = source_;
  // The UA-string side of the breakdown is estimated: distinct-UA counting
  // is exactly what the batch path needs the full dataset for.
  out.source.total_ua_strings =
      static_cast<std::uint64_t>(std::llround(ua_strings_.estimate()));
  for (std::size_t d = 0; d < ua_by_device_.size(); ++d) {
    out.source.ua_strings_by_device[d] = static_cast<std::uint64_t>(
        std::llround(ua_by_device_[d].estimate()));
  }

  out.distinct_urls = urls_.estimate();
  out.distinct_clients = clients_.estimate();
  out.distinct_domains = domains_.estimate();
  out.distinct_ua_strings = ua_strings_.estimate();
  out.hll_standard_error = urls_.standard_error();

  out.top_urls = top_urls_.top(StreamingConfig::heavy_hitters);
  out.top_clients = top_clients_.top(StreamingConfig::heavy_hitters);
  out.heavy_hitter_error_bound = top_urls_.error_bound();

  out.json_sizes =
      summary_from_sketch(json_sizes_, json_moments_, json_min_, json_max_);
  out.html_sizes =
      summary_from_sketch(html_sizes_, html_moments_, html_min_, html_max_);
  out.quantile_alpha = StreamingConfig::quantile_alpha;

  out.periodic_candidates = triage_.candidates();
  out.memory_bytes = memory_bytes();
  return out;
}

std::size_t StreamingAccumulator::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += urls_.memory_bytes() + clients_.memory_bytes() +
           domains_.memory_bytes() + ua_strings_.memory_bytes();
  for (const auto& hll : ua_by_device_) bytes += hll.memory_bytes();
  bytes += url_counts_.memory_bytes() + client_counts_.memory_bytes();
  bytes += top_urls_.memory_bytes() + top_clients_.memory_bytes();
  bytes += json_sizes_.memory_bytes() + html_sizes_.memory_bytes();
  bytes += triage_.memory_bytes();
  for (const auto& [ua, cls] : ua_cache_)
    bytes += ua.capacity() + sizeof(cls) + 2 * sizeof(void*);
  return bytes;
}

StreamingStudy::StreamingStudy(const StreamingConfig& config)
    : threads_(stats::resolve_threads(config.threads)),
      pool_(threads_),
      scratch_(threads_) {}

void StreamingStudy::ingest(const logs::LogTable& table,
                            std::span<const logs::LogTable::RowIndex> rows) {
  ingested_ += rows.size();
  // Sharding pays for itself only when each worker gets a real slice; tiny
  // chunks go straight into the master state.
  if (threads_ <= 1 || rows.size() < threads_ * 256) {
    state_.ingest(table, rows, scratch_.front());
    return;
  }
  // One accumulator per contiguous subrange, merged in subrange order: the
  // exact shard-then-merge shape of the batch stages, so sketch guarantees
  // and determinism carry over (see the file comment).
  std::vector<StreamingAccumulator> shards(threads_);
  pool_.run(threads_, [&](std::size_t s) {
    const auto [begin, end] = stats::chunk_range(rows.size(), threads_, s);
    shards[s].ingest(table, rows.subspan(begin, end - begin), scratch_[s]);
  });
  for (const auto& shard : shards) state_.merge(shard);
}

std::string render_streaming_summary(const StreamingSummary& summary,
                                     std::size_t top_n) {
  std::ostringstream out;
  auto pct = [](double v) {
    std::ostringstream o;
    o << std::fixed << std::setprecision(1) << v * 100.0 << "%";
    return o.str();
  };
  out << "Streaming summary (one-pass, bounded-memory sketches)\n";
  out << "  records: " << summary.total_records << " ("
      << summary.json_records << " JSON), span " << std::fixed
      << std::setprecision(1)
      << summary.last_timestamp - summary.first_timestamp << " s\n";
  out << "  sketch state: " << summary.memory_bytes / 1024 << " KiB\n";
  out << "  distinct (HLL, +/-" << pct(summary.hll_standard_error)
      << "): urls " << std::setprecision(0) << summary.distinct_urls
      << ", clients " << summary.distinct_clients << ", domains "
      << summary.distinct_domains << ", UA strings "
      << summary.distinct_ua_strings << "\n";
  out << "  GET share: " << pct(summary.methods.get_share())
      << "   POST share of non-GET: "
      << pct(summary.methods.post_share_of_non_get())
      << "   uncacheable: " << pct(summary.cacheability.uncacheable_share())
      << "\n";
  out << "  non-browser traffic: " << pct(summary.source.non_browser_share())
      << "   mobile requests: "
      << pct(summary.source.device_share(http::DeviceType::kMobile)) << "\n";
  out << "  JSON/HTML size ratio (sketch, +/-"
      << pct(summary.quantile_alpha) << "): p50 " << std::setprecision(2)
      << summary.json_html_p50_ratio() << ", p75 "
      << summary.json_html_p75_ratio() << "\n";
  out << "  top URLs (Space-Saving, max err "
      << static_cast<std::uint64_t>(summary.heavy_hitter_error_bound)
      << "):\n";
  for (std::size_t i = 0; i < summary.top_urls.size() && i < top_n; ++i) {
    const auto& hh = summary.top_urls[i];
    out << "    " << std::setw(8) << hh.count << " (+/-" << hh.error << ") "
        << hh.key << "\n";
  }
  // Only printed when the stream actually saw errors, so fault-free output
  // is unchanged.
  if (summary.status.server_error_5xx != 0 ||
      summary.status.stale_served != 0 ||
      summary.status.error_cache_status != 0) {
    out << "  errors: " << summary.status.server_error_5xx << " 5xx ("
        << pct(summary.status.error_share()) << " of requests, "
        << summary.status.gateway_timeout_504 << " timeouts), stale served "
        << summary.status.stale_served << ", logged ERROR "
        << summary.status.error_cache_status << "\n";
  }
  out << "  periodic-candidate flows (triage): "
      << summary.periodic_candidates.size() << "\n";
  for (std::size_t i = 0; i < summary.periodic_candidates.size() && i < top_n;
       ++i) {
    const auto& c = summary.periodic_candidates[i];
    out << "    " << std::setw(8) << c.requests << " reqs, ";
    if (c.clients_saturated) {
      out << ">=" << TriageConfig::client_bitmap_bits
          << " clients (saturated)";
    } else {
      out << "~" << std::setprecision(1) << c.estimated_clients
          << " clients";
    }
    out << ", gap " << std::setprecision(2) << c.mean_gap << " s (cv "
        << c.gap_cv << ") " << c.key << "\n";
  }
  return out.str();
}

}  // namespace jsoncdn::stream
