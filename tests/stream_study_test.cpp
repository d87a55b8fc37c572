// Streaming-vs-batch: the one-pass sketch pipeline must reproduce the exact
// batch results within each sketch's configured bound, stay deterministic,
// and hold its memory flat as the stream grows.
#include "stream/streaming_study.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/periodicity.h"
#include "logs/table.h"
#include "stats/rng.h"
#include "stream/validate.h"

namespace jsoncdn::stream {
namespace {

logs::LogRecord make_record(double ts, const std::string& client,
                            const std::string& url, const std::string& domain,
                            bool json, std::uint64_t bytes,
                            logs::CacheStatus cache, http::Method method) {
  logs::LogRecord r;
  r.timestamp = ts;
  r.client_id = client;
  r.user_agent = "NewsReader/5.2.1 (iPhone; iOS 12.4.1)";
  r.method = method;
  r.url = url;
  r.domain = domain;
  r.content_type =
      json ? "application/json; charset=utf-8" : "text/html; charset=utf-8";
  r.status = 200;
  r.response_bytes = bytes;
  r.request_bytes = method == http::Method::kPost ? 256 : 0;
  r.cache_status = cache;
  r.edge_id = 1;
  return r;
}

// Synthetic stream with known structure:
//   - three periodic JSON flows (20 clients polling every 20 s),
//   - one heavy aperiodic JSON flow (12 clients, exponential gaps),
//   - a tail of small JSON flows (ineligible for periodicity),
//   - HTML traffic for the size comparison.
logs::LogTable make_stream_dataset() {
  logs::LogTable ds;
  stats::Rng rng(2024);
  for (int flow = 0; flow < 3; ++flow) {
    const std::string url =
        "https://api.test.example/poll/" + std::to_string(flow);
    // Random per-client phases: each client polls every 20 s from its own
    // offset (evenly spaced offsets would add a spurious fine-grained
    // period to the aggregate signal).
    std::vector<double> phase(20);
    for (auto& p : phase) p = rng.uniform(0.0, 20.0);
    for (int tick = 0; tick < 30; ++tick) {
      for (int c = 0; c < 20; ++c) {
        const double ts =
            20.0 * tick + phase[c] + rng.uniform(-0.2, 0.2);
        ds.append(make_record(ts, "client-" + std::to_string(c), url,
                              "api.test.example", true,
                              900 + static_cast<std::uint64_t>(flow) * 64 +
                                  static_cast<std::uint64_t>(c),
                              tick % 2 == 0 ? logs::CacheStatus::kNotCacheable
                                            : logs::CacheStatus::kMiss,
                              c % 4 == 0 ? http::Method::kPost
                                         : http::Method::kGet));
      }
    }
  }
  for (int c = 0; c < 12; ++c) {
    double ts = rng.uniform(0.0, 5.0);
    for (int i = 0; i < 30; ++i) {
      ts += rng.exponential(1.0 / 18.0);
      ds.append(make_record(ts, "hot-client-" + std::to_string(c),
                            "https://api.test.example/hot", "api.test.example",
                            true,
                            static_cast<std::uint64_t>(
                                std::exp(rng.normal(7.0, 0.8))),
                            logs::CacheStatus::kHit, http::Method::kGet));
    }
  }
  for (int u = 0; u < 80; ++u) {
    const std::string url =
        "https://tail.test.example/obj/" + std::to_string(u);
    for (int i = 0; i < 4; ++i) {
      ds.append(make_record(rng.uniform(0.0, 590.0),
                            "tail-client-" + std::to_string(u % 25), url,
                            "tail.test.example", true,
                            static_cast<std::uint64_t>(
                                std::exp(rng.normal(6.5, 1.0))),
                            logs::CacheStatus::kMiss, http::Method::kGet));
    }
  }
  for (int i = 0; i < 3000; ++i) {
    ds.append(make_record(rng.uniform(0.0, 590.0),
                          "web-client-" + std::to_string(i % 40),
                          "https://www.test.example/page/" +
                              std::to_string(i % 60),
                          "www.test.example", false,
                          static_cast<std::uint64_t>(
                              std::exp(rng.normal(9.5, 1.2))),
                          logs::CacheStatus::kHit, http::Method::kGet));
  }
  ds.sort_by_time();
  return ds;
}

std::vector<logs::LogTable::RowIndex> all_rows(const logs::LogTable& table) {
  std::vector<logs::LogTable::RowIndex> rows(table.size());
  std::iota(rows.begin(), rows.end(), logs::LogTable::RowIndex{0});
  return rows;
}

StreamingSummary stream_in_chunks(const logs::LogTable& ds,
                                  const StreamingConfig& config,
                                  std::size_t chunk_size) {
  StreamingStudy study(config);
  const auto rows = all_rows(ds);
  for (std::size_t begin = 0; begin < rows.size(); begin += chunk_size) {
    const auto count = std::min(chunk_size, rows.size() - begin);
    study.ingest(ds, std::span<const logs::LogTable::RowIndex>(&rows[begin],
                                                              count));
  }
  return study.summary();
}

TEST(StreamingStudy, MatchesExactBatchWithinConfiguredBounds) {
  const auto ds = make_stream_dataset();
  StreamingConfig config;
  config.threads = 2;
  const auto summary = stream_in_chunks(ds, config, 512);
  const auto report = validate_streaming(ds, summary);
  EXPECT_TRUE(report.counters_identical);
  EXPECT_EQ(report.topk_found, report.topk_checked);
  EXPECT_LE(report.url_cardinality_error, report.hll_error_bound);
  EXPECT_LE(report.client_cardinality_error, report.hll_error_bound);
  EXPECT_LE(report.quantile_max_rel_error,
            report.quantile_error_bound * 1.05);
  EXPECT_TRUE(report.within_bounds())
      << render_validation(report);
  // Every flow eligible for the paper's periodicity filters must survive
  // triage (the screen may only drop ineligible or hopeless flows).
  EXPECT_EQ(report.eligible_missed, 0u) << render_validation(report);
  EXPECT_GE(report.eligible_flows, 4u);
}

TEST(StreamingStudy, SummaryIsDeterministicAcrossRuns) {
  const auto ds = make_stream_dataset();
  StreamingConfig config;
  config.threads = 4;
  const auto a = stream_in_chunks(ds, config, 1024);
  const auto b = stream_in_chunks(ds, config, 1024);
  EXPECT_EQ(render_streaming_summary(a), render_streaming_summary(b));
}

TEST(StreamingStudy, ShardedIngestMatchesSerialOnMergeInvariantState) {
  const auto ds = make_stream_dataset();
  StreamingConfig serial_config;
  serial_config.threads = 1;
  StreamingConfig sharded_config;
  sharded_config.threads = 4;
  // One big chunk so the sharded study actually fans out.
  StreamingStudy serial(serial_config);
  StreamingStudy sharded(sharded_config);
  const auto rows = all_rows(ds);
  serial.ingest(ds, rows);
  sharded.ingest(ds, rows);
  const auto a = serial.summary();
  const auto b = sharded.summary();
  // Counters, HLL, and quantile state merge bit-identically for any
  // partition; Space-Saving order is only fixed per (chunk, threads), so it
  // is not compared here.
  EXPECT_EQ(a.total_records, b.total_records);
  EXPECT_EQ(a.json_records, b.json_records);
  EXPECT_EQ(a.methods.get, b.methods.get);
  EXPECT_EQ(a.methods.post, b.methods.post);
  EXPECT_EQ(a.cacheability.uncacheable, b.cacheability.uncacheable);
  EXPECT_EQ(a.source.requests_by_device, b.source.requests_by_device);
  EXPECT_DOUBLE_EQ(a.distinct_urls, b.distinct_urls);
  EXPECT_DOUBLE_EQ(a.distinct_clients, b.distinct_clients);
  EXPECT_DOUBLE_EQ(a.distinct_domains, b.distinct_domains);
  EXPECT_DOUBLE_EQ(a.json_sizes.p50, b.json_sizes.p50);
  EXPECT_DOUBLE_EQ(a.json_sizes.p99, b.json_sizes.p99);
  EXPECT_DOUBLE_EQ(a.html_sizes.p50, b.html_sizes.p50);
}

TEST(StreamingStudy, MemoryStaysBoundedAsStreamGrows) {
  const auto ds = make_stream_dataset();
  StreamingConfig config;
  config.threads = 1;
  const auto once = stream_in_chunks(ds, config, 2048);

  // 10x the stream: same shape, repeated with shifted timestamps. Exact
  // batch analysis would need 10x the RAM; the sketches must not.
  const double span = once.last_timestamp - once.first_timestamp + 1.0;
  StreamingStudy study(config);
  const auto rows = all_rows(ds);
  logs::LogTable shifted;
  for (int rep = 0; rep < 10; ++rep) {
    shifted.clear_rows();
    for (const auto row : rows) {
      auto r = ds.record(row);
      r.timestamp += span * rep;
      shifted.append(r);
    }
    study.ingest(shifted, rows);
  }
  const auto tenfold = study.summary();
  EXPECT_EQ(tenfold.total_records, once.total_records * 10);
  // O(sketch) memory: a 10x stream may not cost even 1.5x the footprint.
  EXPECT_LE(tenfold.memory_bytes,
            once.memory_bytes + once.memory_bytes / 2);
  EXPECT_LT(tenfold.memory_bytes, 8u * 1024 * 1024);
}

TEST(StreamingStudy, TriageCandidatesDriveTargetedPeriodicityPass) {
  const auto ds = make_stream_dataset();
  StreamingConfig config;
  config.threads = 1;
  const auto summary = stream_in_chunks(ds, config, 2048);
  ASSERT_FALSE(summary.periodic_candidates.empty());
  std::unordered_set<std::string> candidates;
  for (const auto& c : summary.periodic_candidates) candidates.insert(c.key);
  for (int flow = 0; flow < 3; ++flow) {
    EXPECT_TRUE(candidates.contains("https://api.test.example/poll/" +
                                    std::to_string(flow)));
  }
  // The candidate set must stay a small subset: the tail flows are screened.
  EXPECT_LT(candidates.size(), 10u);

  // Second pass: detector over candidate records only, shares reported
  // relative to the full stream via the override.
  std::vector<logs::LogTable::RowIndex> subset;
  for (const auto row : ds.json_rows()) {
    if (candidates.contains(std::string(ds.url(row)))) subset.push_back(row);
  }
  core::PeriodicityConfig pconfig;
  pconfig.detector.permutations = 40;
  pconfig.threads = 2;
  pconfig.total_requests_override =
      static_cast<std::size_t>(summary.json_records);
  const auto report =
      core::analyze_periodicity(logs::TableView(ds, subset), pconfig);
  EXPECT_EQ(report.total_requests, summary.json_records);
  std::unordered_set<std::string> periodic;
  for (const auto& obj : report.objects) {
    if (obj.object_periodic) periodic.insert(obj.url);
  }
  for (int flow = 0; flow < 3; ++flow) {
    EXPECT_TRUE(periodic.contains("https://api.test.example/poll/" +
                                  std::to_string(flow)))
        << "flow " << flow;
  }
  EXPECT_GT(report.periodic_request_share, 0.0);
  EXPECT_LT(report.periodic_request_share, 1.0);
}

TEST(StreamingStudy, RenderedSummaryCarriesHeadlineNumbers) {
  const auto ds = make_stream_dataset();
  StreamingConfig config;
  config.threads = 1;
  const auto summary = stream_in_chunks(ds, config, 2048);
  const auto text = render_streaming_summary(summary);
  EXPECT_NE(text.find("Streaming summary"), std::string::npos);
  EXPECT_NE(text.find("top URLs"), std::string::npos);
  EXPECT_NE(text.find("periodic-candidate flows"), std::string::npos);
}

}  // namespace
}  // namespace jsoncdn::stream
