// End-to-end integration: scenario -> workload -> CDN -> logs -> analyses.
// These tests assert the *paper-shaped* properties of the full pipeline at
// small scale, with tolerances wide enough for sampling noise.
#include "core/study.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/report.h"
#include "logs/csv.h"
#include "workload/scenario.h"
#include "workload/traffic_mix.h"

namespace jsoncdn::core {
namespace {

const StudyResult& small_short_term_study() {
  static const StudyResult result = [] {
    StudyConfig config;
    config.workload = workload::short_term_scenario(0.008, 2024);
    config.ngram_configs = {{.context_len = 1, .clustered = false},
                            {.context_len = 1, .clustered = true}};
    return run_study(config);
  }();
  return result;
}

TEST(Study, ProducesAllCharacterizationOutputs) {
  const auto& r = small_short_term_study();
  EXPECT_GT(r.table.size(), 10000u);
  EXPECT_GT(r.json().size(), 1000u);
  ASSERT_TRUE(r.source.has_value());
  ASSERT_TRUE(r.methods.has_value());
  ASSERT_TRUE(r.cacheability.has_value());
  ASSERT_TRUE(r.sizes.has_value());
  ASSERT_TRUE(r.heatmap.has_value());
  EXPECT_FALSE(r.domains.empty());
  EXPECT_FALSE(r.periodicity.has_value());  // not requested
}

TEST(Study, Figure3DeviceMixInPaperBands) {
  const auto& source = *small_short_term_study().source;
  // Paper: mobile >= 55%, embedded ~12%, unknown ~24%.
  EXPECT_GT(source.device_share(http::DeviceType::kMobile), 0.52);
  EXPECT_NEAR(source.device_share(http::DeviceType::kEmbedded), 0.12, 0.05);
  EXPECT_NEAR(source.device_share(http::DeviceType::kUnknown), 0.24, 0.07);
}

TEST(Study, BrowserSharesInPaperBands) {
  const auto& source = *small_short_term_study().source;
  // Paper: 88% non-browser; mobile browsers 2.5% of JSON traffic.
  EXPECT_GT(source.non_browser_share(), 0.80);
  EXPECT_NEAR(source.mobile_browser_share(), 0.025, 0.03);
}

TEST(Study, UaStringDistributionInPaperBands) {
  const auto& source = *small_short_term_study().source;
  // Paper: 73% mobile / 17% embedded / 3% desktop / 7% unknown UA strings.
  EXPECT_NEAR(source.ua_string_share(http::DeviceType::kMobile), 0.73, 0.08);
  EXPECT_NEAR(source.ua_string_share(http::DeviceType::kEmbedded), 0.17,
              0.06);
  EXPECT_LT(source.ua_string_share(http::DeviceType::kDesktop), 0.10);
}

TEST(Study, MethodMixInPaperBands) {
  const auto& methods = *small_short_term_study().methods;
  // Paper: 84% GET; 96% of the rest POST.
  EXPECT_NEAR(methods.get_share(), 0.84, 0.05);
  EXPECT_GT(methods.post_share_of_non_get(), 0.85);
}

TEST(Study, CacheabilityInPaperBands) {
  const auto& cache = *small_short_term_study().cacheability;
  // Paper: ~55% of JSON traffic uncacheable.
  EXPECT_NEAR(cache.uncacheable_share(), 0.55, 0.12);
}

TEST(Study, SizeComparisonInPaperBands) {
  const auto& sizes = *small_short_term_study().sizes;
  // Paper: JSON ~24% smaller at p50, ~87% smaller at p75.
  // Wide band: the scaled-down catalog has few HTML objects, so the
  // request-weighted HTML median is seed-noisy (converges at larger scale).
  EXPECT_NEAR(sizes.p50_ratio(), 0.76, 0.22);
  EXPECT_NEAR(sizes.p75_ratio(), 0.13, 0.08);
  EXPECT_LT(sizes.json.mean, sizes.html.mean);
}

TEST(Study, HeatmapDomainSharesInPaperBands) {
  const auto& heatmap = *small_short_term_study().heatmap;
  // Paper: ~50% of domains never cache, ~30% always cache.
  EXPECT_NEAR(heatmap.never_cache_domain_share, 0.50, 0.12);
  EXPECT_NEAR(heatmap.always_cache_domain_share, 0.30, 0.12);
}

TEST(Study, NgramAccuracyMatchesTable3Shape) {
  const auto& rows = small_short_term_study().ngram;
  ASSERT_EQ(rows.size(), 2u);
  const auto& actual = rows[0];
  const auto& clustered = rows[1];
  ASSERT_FALSE(actual.clustered);
  ASSERT_TRUE(clustered.clustered);
  // Table 3 shape: clustered beats actual at every K; accuracy grows in K.
  for (const auto k : {1u, 5u, 10u}) {
    EXPECT_GT(clustered.accuracy_at.at(k), actual.accuracy_at.at(k)) << k;
  }
  EXPECT_LT(actual.accuracy_at.at(1), actual.accuracy_at.at(10));
  // Rough bands around the paper's numbers.
  EXPECT_NEAR(actual.accuracy_at.at(1), 0.45, 0.12);
  EXPECT_NEAR(clustered.accuracy_at.at(1), 0.65, 0.12);
  EXPECT_NEAR(clustered.accuracy_at.at(10), 0.87, 0.10);
}

TEST(Study, DeliveryMetricsConsistent) {
  const auto& r = small_short_term_study();
  EXPECT_EQ(r.delivery.requests(), r.table.size());
  EXPECT_GT(r.delivery.bytes_served(), 0u);
  EXPECT_GT(r.delivery.cacheable_hit_ratio(), 0.0);
  EXPECT_LT(r.delivery.cacheable_hit_ratio(), 1.0);
}

TEST(Study, DatasetSurvivesCsvRoundTrip) {
  const auto& r = small_short_term_study();
  std::stringstream stream;
  logs::LogWriter writer(stream);
  for (std::uint32_t i = 0; i < 500; ++i) writer.write(r.table.record(i));
  std::string line;
  ASSERT_TRUE(std::getline(stream, line));
  EXPECT_EQ(line, logs::log_header());
  std::vector<logs::LogRecord> back;
  while (std::getline(stream, line)) {
    const auto record = logs::from_line(line);
    ASSERT_TRUE(record.has_value()) << line;
    back.push_back(*record);
  }
  ASSERT_EQ(back.size(), 500u);
  for (std::uint32_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].url, r.table.url(i));
    EXPECT_EQ(back[i].client_id, r.table.client_id(i));
    EXPECT_EQ(back[i].cache_status, r.table.cache_status(i));
  }
}

TEST(Study, ReportRenderersProduceOutput) {
  const auto& r = small_short_term_study();
  EXPECT_NE(render_source(*r.source).find("mobile"), std::string::npos);
  EXPECT_NE(render_headline(*r.methods, *r.cacheability, *r.sizes)
                .find("GET share"),
            std::string::npos);
  EXPECT_NE(render_heatmap(*r.heatmap).find("Figure 4"), std::string::npos);
  EXPECT_NE(render_ngram_table(r.ngram).find("Table 3"), std::string::npos);
}

TEST(Study, GroundTruthNeverLeaksIntoLogs) {
  // The dataset must contain anonymized ids, never raw 10.x addresses.
  const auto& r = small_short_term_study();
  for (std::uint32_t i = 0; i < 200; ++i) {
    EXPECT_EQ(r.table.client_id(i).find("10."), std::string::npos);
    EXPECT_EQ(r.table.client_id(i).size(), 16u);
  }
}

// The threading determinism contract (DESIGN.md): every analysis output is
// bit-identical for any thread count. Exact (EXPECT_EQ) comparisons on
// doubles are deliberate — "close" would hide order-dependent reductions.
TEST(Study, ResultsBitIdenticalAcrossThreadCounts) {
  StudyConfig config;
  config.workload = workload::short_term_scenario(0.002, 7);
  config.run_periodicity = true;
  config.periodicity.detector.permutations = 25;  // keep the test fast
  config.ngram_configs = {{.context_len = 1, .clustered = false},
                          {.context_len = 2, .clustered = true}};

  config.threads = 1;
  const StudyResult serial = run_study(config);
  config.threads = 4;
  const StudyResult parallel = run_study(config);

  // Characterization counters.
  ASSERT_TRUE(serial.source && parallel.source);
  EXPECT_EQ(serial.source->requests_by_device,
            parallel.source->requests_by_device);
  EXPECT_EQ(serial.source->ua_strings_by_device,
            parallel.source->ua_strings_by_device);
  EXPECT_EQ(serial.source->total_requests, parallel.source->total_requests);
  EXPECT_EQ(serial.source->total_ua_strings,
            parallel.source->total_ua_strings);
  EXPECT_EQ(serial.source->browser_requests,
            parallel.source->browser_requests);
  EXPECT_EQ(serial.source->mobile_browser_requests,
            parallel.source->mobile_browser_requests);
  EXPECT_EQ(serial.source->missing_ua_requests,
            parallel.source->missing_ua_requests);

  ASSERT_TRUE(serial.methods && parallel.methods);
  EXPECT_EQ(serial.methods->get, parallel.methods->get);
  EXPECT_EQ(serial.methods->post, parallel.methods->post);
  EXPECT_EQ(serial.methods->other, parallel.methods->other);
  EXPECT_EQ(serial.methods->total, parallel.methods->total);

  ASSERT_TRUE(serial.cacheability && parallel.cacheability);
  EXPECT_EQ(serial.cacheability->cacheable, parallel.cacheability->cacheable);
  EXPECT_EQ(serial.cacheability->uncacheable,
            parallel.cacheability->uncacheable);
  EXPECT_EQ(serial.cacheability->hits, parallel.cacheability->hits);

  // Size summaries: percentiles come from per-shard vectors concatenated in
  // chunk order, so even the floating-point stats must match exactly.
  ASSERT_TRUE(serial.sizes && parallel.sizes);
  const auto expect_summary_eq = [](const stats::Summary& a,
                                    const stats::Summary& b) {
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.stddev, b.stddev);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.p25, b.p25);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p75, b.p75);
    EXPECT_EQ(a.p90, b.p90);
    EXPECT_EQ(a.p99, b.p99);
  };
  expect_summary_eq(serial.sizes->json, parallel.sizes->json);
  expect_summary_eq(serial.sizes->html, parallel.sizes->html);

  // Domain cacheability rows and the derived heatmap.
  ASSERT_EQ(serial.domains.size(), parallel.domains.size());
  for (std::size_t i = 0; i < serial.domains.size(); ++i) {
    EXPECT_EQ(serial.domains[i].domain, parallel.domains[i].domain);
    EXPECT_EQ(serial.domains[i].category, parallel.domains[i].category);
    EXPECT_EQ(serial.domains[i].requests, parallel.domains[i].requests);
    EXPECT_EQ(serial.domains[i].cacheable_share,
              parallel.domains[i].cacheable_share);
  }
  ASSERT_TRUE(serial.heatmap && parallel.heatmap);
  EXPECT_EQ(serial.heatmap->categories, parallel.heatmap->categories);
  EXPECT_EQ(serial.heatmap->density, parallel.heatmap->density);

  // Periodicity: per-flow RNG forking keyed on url/client hashes makes the
  // permutation tests independent of scheduling.
  ASSERT_TRUE(serial.periodicity && parallel.periodicity);
  const auto& sp = *serial.periodicity;
  const auto& pp = *parallel.periodicity;
  EXPECT_EQ(sp.total_requests, pp.total_requests);
  EXPECT_EQ(sp.periodic_requests, pp.periodic_requests);
  EXPECT_EQ(sp.periodic_request_share, pp.periodic_request_share);
  EXPECT_EQ(sp.periodic_uncacheable_share, pp.periodic_uncacheable_share);
  EXPECT_EQ(sp.periodic_upload_share, pp.periodic_upload_share);
  EXPECT_EQ(sp.object_periods, pp.object_periods);
  EXPECT_EQ(sp.periodic_client_shares, pp.periodic_client_shares);
  ASSERT_EQ(sp.objects.size(), pp.objects.size());
  for (std::size_t i = 0; i < sp.objects.size(); ++i) {
    const auto& a = sp.objects[i];
    const auto& b = pp.objects[i];
    EXPECT_EQ(a.url, b.url);
    EXPECT_EQ(a.object_periodic, b.object_periodic);
    EXPECT_EQ(a.object_period_seconds, b.object_period_seconds);
    EXPECT_EQ(a.total_requests, b.total_requests);
    EXPECT_EQ(a.periodic_client_count, b.periodic_client_count);
    EXPECT_EQ(a.periodic_requests, b.periodic_requests);
    ASSERT_EQ(a.clients.size(), b.clients.size()) << a.url;
    for (std::size_t c = 0; c < a.clients.size(); ++c) {
      EXPECT_EQ(a.clients[c].client, b.clients[c].client);
      EXPECT_EQ(a.clients[c].periodic, b.clients[c].periodic);
      EXPECT_EQ(a.clients[c].period_seconds, b.clients[c].period_seconds);
      EXPECT_EQ(a.clients[c].matches_object, b.clients[c].matches_object);
    }
  }

  // Ngram: sharded count-then-merge training and chunked scoring.
  ASSERT_EQ(serial.ngram.size(), parallel.ngram.size());
  for (std::size_t i = 0; i < serial.ngram.size(); ++i) {
    EXPECT_EQ(serial.ngram[i].train_clients, parallel.ngram[i].train_clients);
    EXPECT_EQ(serial.ngram[i].test_clients, parallel.ngram[i].test_clients);
    EXPECT_EQ(serial.ngram[i].predictions, parallel.ngram[i].predictions);
    EXPECT_EQ(serial.ngram[i].accuracy_at, parallel.ngram[i].accuracy_at);
  }
}

TEST(TrafficMix, InterpolationHitsEndpoints) {
  using workload::GrowthConfig;
  const auto start = workload::interpolate_mix(0);
  const auto end = workload::interpolate_mix(GrowthConfig::n_quarters - 1);
  EXPECT_NEAR(start.mobile_app, GrowthConfig::mix_2016.mobile_app, 1e-9);
  EXPECT_NEAR(end.mobile_app, GrowthConfig::mix_2019.mobile_app, 1e-9);
  EXPECT_THROW((void)workload::interpolate_mix(-1), std::invalid_argument);
  EXPECT_THROW((void)workload::interpolate_mix(GrowthConfig::n_quarters),
               std::invalid_argument);
}

TEST(TrafficMix, SizeShiftReachesConfiguredScale) {
  using workload::GrowthConfig;
  EXPECT_DOUBLE_EQ(workload::json_size_log_shift_at(0), 0.0);
  EXPECT_NEAR(std::exp(workload::json_size_log_shift_at(
                  GrowthConfig::n_quarters - 1)),
              GrowthConfig::json_size_total_scale, 1e-9);
}

TEST(TrafficMix, Figure1RatioGrowsAcrossTheSpan) {
  workload::GrowthConfig config;
  config.clients_per_quarter = 250;  // a small population keeps it fast
  const auto series = workload::simulate_growth(config);
  ASSERT_EQ(series.size(), std::size_t{workload::GrowthConfig::n_quarters});
  EXPECT_GT(series.front().json_html_ratio, 0.0);
  // Headline shape: the ratio grows substantially start -> end.
  EXPECT_GT(series.back().json_html_ratio,
            series.front().json_html_ratio * 1.5);
  // Median JSON body size shrinks (means carry Pareto-tail noise).
  EXPECT_LT(series.back().median_json_bytes,
            series.front().median_json_bytes * 0.90);
  // Labels advance.
  EXPECT_EQ(series.front().label, "2016Q1");
  EXPECT_EQ(series[4].label, "2017Q1");
}

}  // namespace
}  // namespace jsoncdn::core
