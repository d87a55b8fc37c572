// Streaming-vs-batch: the one-pass sketch pipeline must reproduce the exact
// batch results within each sketch's configured bound, stay deterministic,
// and hold its memory flat as the stream grows.
#include "stream/streaming_study.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

// Appends one tenant's traffic over [t0, t0 + span): a few polled JSON
// flows, a Zipf-ish head, a one-request tail wide enough to overflow the
// triage's flow table, and some HTML. `prefix` names the
// tenant's URLs and clients, so two tenants' tables give the same symbol
// numbers to different strings; `shared` URLs are interned after the
// tenant's own, so they take other symbol numbers in each table.
void append_tenant_rows(logs::LogTable& table, const std::string& prefix,
                        const std::vector<std::string>& shared, double t0,
                        double span, std::uint64_t seed) {
  stats::Rng rng(seed);
  const auto client = [&](std::int64_t hi) {
    return prefix + "-client-" + std::to_string(rng.uniform_int(0, hi));
  };
  for (int flow = 0; flow < 3; ++flow) {
    const std::string url =
        "https://" + prefix + ".test.example/poll/" + std::to_string(flow);
    for (int tick = 0; tick * 20.0 < span; ++tick) {
      for (int c = 0; c < 15; ++c) {
        table.append(make_record(
            t0 + 20.0 * tick + static_cast<double>(c),
            prefix + "-poller-" + std::to_string(c), url,
            prefix + ".test.example", true, 700,
            logs::CacheStatus::kNotCacheable, http::Method::kPost));
      }
    }
  }
  for (int i = 0; i < 6000; ++i) {
    const auto rank = static_cast<int>(std::exp(rng.uniform(0.0, 6.5)));
    table.append(make_record(
        t0 + rng.uniform(0.0, span), client(700),
        "https://" + prefix + ".test.example/obj/" + std::to_string(rank),
        prefix + ".test.example", true, 900, logs::CacheStatus::kMiss,
        http::Method::kGet));
  }
  for (int i = 0; i < 4500; ++i) {
    table.append(make_record(
        t0 + rng.uniform(0.0, span), client(900),
        "https://" + prefix + ".test.example/tail/" + std::to_string(i),
        prefix + ".test.example", true, 400, logs::CacheStatus::kHit,
        http::Method::kGet));
  }
  for (int i = 0; i < 1500; ++i) {
    table.append(make_record(
        t0 + rng.uniform(0.0, span), client(50),
        shared[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(shared.size()) - 1))],
        "shared.test.example", true, 1200, logs::CacheStatus::kHit,
        http::Method::kGet));
  }
  for (int i = 0; i < 500; ++i) {
    table.append(make_record(t0 + rng.uniform(0.0, span), client(40),
                             "https://www.test.example/page",
                             "www.test.example", false, 20000,
                             logs::CacheStatus::kHit, http::Method::kGet));
  }
}

TEST(StreamingStudy, DictionaryChangesBetweenIngestCallsLeaveNoTrace) {
  std::vector<std::string> shared;
  for (int i = 0; i < 40; ++i)
    shared.push_back("https://shared.test.example/cfg/" + std::to_string(i));
  // Table `a` holds two time ranges; table `b` holds the range between them
  // under the same symbol numbers with different strings.
  logs::LogTable a;
  append_tenant_rows(a, "alpha", shared, 0.0, 300.0, 31);
  a.sort_by_time();
  const auto a_first = a.size();
  logs::LogTable a_late;
  append_tenant_rows(a_late, "alpha", shared, 600.0, 300.0, 32);
  a_late.sort_by_time();
  logs::LogTable::SymbolMap late_map;
  for (logs::LogTable::RowIndex r = 0; r < a_late.size(); ++r)
    a.append_row(a_late, r, late_map);
  logs::LogTable b;
  append_tenant_rows(b, "bravo", shared, 300.0, 300.0, 33);
  b.sort_by_time();
  ASSERT_EQ(a.urls().view(0).substr(0, 13), "https://alpha");
  ASSERT_EQ(b.urls().view(0).substr(0, 13), "https://bravo");
  ASSERT_NE(a.urls().find(shared[0]), b.urls().find(shared[0]));

  const auto rows_a = all_rows(a);
  const auto rows_b = all_rows(b);
  const std::span<const logs::LogTable::RowIndex> early(rows_a.data(),
                                                        a_first);
  const std::span<const logs::LogTable::RowIndex> late(
      rows_a.data() + a_first, rows_a.size() - a_first);

  StreamingConfig config;
  config.threads = 1;
  StreamingStudy switching(config);
  switching.ingest(a, early);
  switching.ingest(b, rows_b);
  switching.ingest(a, late);

  // The same rows in the same order, from one table with one dictionary.
  logs::LogTable whole;
  logs::LogTable::SymbolMap map_a;
  logs::LogTable::SymbolMap map_b;
  for (const auto row : early) whole.append_row(a, row, map_a);
  for (const auto row : rows_b) whole.append_row(b, row, map_b);
  for (const auto row : late) whole.append_row(a, row, map_a);
  StreamingStudy single(config);
  single.ingest(whole, all_rows(whole));

  const auto got = switching.summary();
  const auto want = single.summary();
  ASSERT_EQ(got.total_records, whole.size());
  EXPECT_EQ(render_streaming_summary(got), render_streaming_summary(want));
  const auto same_hitters = [](const std::vector<HeavyHitter>& x,
                               const std::vector<HeavyHitter>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].key != y[i].key || x[i].count != y[i].count ||
          x[i].error != y[i].error)
        return false;
    }
    return true;
  };
  // Both sketches are full, so keys were evicted across the table switches.
  ASSERT_EQ(want.top_urls.size(), StreamingConfig::heavy_hitters);
  ASSERT_EQ(want.top_clients.size(), StreamingConfig::heavy_hitters);
  EXPECT_TRUE(same_hitters(got.top_urls, want.top_urls));
  EXPECT_TRUE(same_hitters(got.top_clients, want.top_clients));
  ASSERT_EQ(got.periodic_candidates.size(), want.periodic_candidates.size());
  EXPECT_GE(want.periodic_candidates.size(), 6u);
  for (std::size_t i = 0; i < want.periodic_candidates.size(); ++i) {
    const auto& x = got.periodic_candidates[i];
    const auto& y = want.periodic_candidates[i];
    EXPECT_EQ(x.key, y.key);
    EXPECT_EQ(x.requests, y.requests);
    EXPECT_EQ(x.span_seconds, y.span_seconds);
    EXPECT_EQ(x.mean_gap, y.mean_gap);
    EXPECT_EQ(x.gap_cv, y.gap_cv);
    EXPECT_EQ(x.estimated_clients, y.estimated_clients);
  }
  EXPECT_EQ(got.memory_bytes, want.memory_bytes);
}

TEST(StreamingStudy, RenderedSummaryPrintsSaturatedClientCountsAsBounds) {
  StreamingSummary summary;
  CandidateFlow saturated;
  saturated.key = "https://api.test.example/crowd";
  saturated.requests = 900;
  saturated.mean_gap = 1.5;
  saturated.gap_cv = 0.9;
  saturated.estimated_clients = 256.0 * std::log(256.0);
  saturated.clients_saturated = true;
  CandidateFlow counted = saturated;
  counted.key = "https://api.test.example/poll";
  counted.requests = 300;
  counted.estimated_clients = 15.44;
  counted.clients_saturated = false;
  summary.periodic_candidates = {saturated, counted};
  const auto text = render_streaming_summary(summary);
  EXPECT_NE(text.find("     900 reqs, >=256 clients (saturated), gap 1.50 s "
                      "(cv 0.90) https://api.test.example/crowd\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("     300 reqs, ~15.4 clients, gap 1.50 s (cv 0.90) "
                      "https://api.test.example/poll\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("1419.6"), std::string::npos) << text;
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
