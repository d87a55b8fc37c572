#include "workload/app_graph.h"

#include <gtest/gtest.h>

#include <numeric>

namespace jsoncdn::workload {
namespace {

DomainSpec test_domain(double cacheable_share = 0.5) {
  DomainSpec d;
  d.name = "app.example";
  d.cacheable_share = cacheable_share;
  return d;
}

TEST(AppGraph, RowsAreStochastic) {
  ObjectCatalog catalog;
  AppGraph graph(test_domain(), catalog, {}, stats::Rng(1));
  for (const auto& row : graph.transitions()) {
    const double sum = std::accumulate(row.begin(), row.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    for (const double w : row) EXPECT_GE(w, 0.0);
  }
}

TEST(AppGraph, ManifestIsPlainGet) {
  ObjectCatalog catalog;
  AppGraph graph(test_domain(), catalog, {}, stats::Rng(2));
  EXPECT_EQ(graph.method_of(graph.manifest()), http::Method::kGet);
  EXPECT_FALSE(graph.is_parameterized(graph.manifest()));
  EXPECT_EQ(graph.urls_of(graph.manifest()).size(), 1u);
}

TEST(AppGraph, RegistersEveryUrlInCatalog) {
  ObjectCatalog catalog;
  AppGraphParams params;
  AppGraph graph(test_domain(), catalog, params, stats::Rng(3));
  std::size_t total_urls = 0;
  for (std::size_t t = 0; t < graph.endpoint_count(); ++t) {
    for (const auto& url : graph.urls_of(t)) {
      ++total_urls;
      const auto* obj = catalog.find(url);
      ASSERT_NE(obj, nullptr) << url;
      EXPECT_EQ(obj->content, http::ContentClass::kJson);
      EXPECT_EQ(obj->domain, "app.example");
    }
  }
  EXPECT_EQ(total_urls, catalog.size());
}

TEST(AppGraph, ParameterizedTemplatesHaveIdSpaceUrls) {
  ObjectCatalog catalog;
  AppGraph graph(test_domain(), catalog, {}, stats::Rng(4));
  bool found_parameterized = false;
  for (std::size_t t = 0; t < graph.endpoint_count(); ++t) {
    if (graph.is_parameterized(t)) {
      found_parameterized = true;
      EXPECT_EQ(graph.urls_of(t).size(), AppGraphParams::id_space);
    } else {
      EXPECT_EQ(graph.urls_of(t).size(), 1u);
    }
  }
  EXPECT_TRUE(found_parameterized);
}

TEST(AppGraph, WalkStaysInGraph) {
  ObjectCatalog catalog;
  AppGraph graph(test_domain(), catalog, {}, stats::Rng(5));
  stats::Rng rng(6);
  std::size_t state = graph.manifest();
  for (int i = 0; i < 500; ++i) {
    state = graph.next_template(state, rng);
    ASSERT_LT(state, graph.endpoint_count());
    const auto& url = graph.instantiate(state, rng);
    EXPECT_NE(catalog.find(url), nullptr);
  }
}

TEST(AppGraph, NonParameterizedNeverSelfLoops) {
  ObjectCatalog catalog;
  AppGraph graph(test_domain(), catalog, {}, stats::Rng(7));
  const auto& transitions = graph.transitions();
  for (std::size_t t = 0; t < graph.endpoint_count(); ++t) {
    if (!graph.is_parameterized(t)) {
      EXPECT_DOUBLE_EQ(transitions[t][t], 0.0);
    }
  }
}

TEST(AppGraph, OracleAccuracyWithinConfiguredBand) {
  ObjectCatalog catalog;
  AppGraph graph(test_domain(), catalog, {}, stats::Rng(8));
  const double oracle = graph.oracle_top1_template_accuracy();
  EXPECT_GE(oracle, AppGraphParams::top_transition_lo - 0.05);
  EXPECT_LE(oracle, AppGraphParams::top_transition_hi + 0.05);
}

TEST(AppGraph, UploadEndpointsAreUncacheable) {
  // About one template in twenty is an upload, so check a fleet of
  // always-cache apps and require that it has uploads at all.
  std::size_t uploads = 0;
  for (std::uint64_t seed = 9; seed < 29; ++seed) {
    ObjectCatalog catalog;
    AppGraph graph(test_domain(1.0), catalog, {}, stats::Rng(seed));
    for (std::size_t t = 0; t < graph.endpoint_count(); ++t) {
      if (http::is_upload(graph.method_of(t))) {
        ++uploads;
        for (const auto& url : graph.urls_of(t)) {
          EXPECT_FALSE(catalog.find(url)->cacheable);
        }
      }
    }
  }
  EXPECT_GT(uploads, 0u);
}

TEST(AppGraph, DeterministicForSameSeed) {
  ObjectCatalog c1;
  ObjectCatalog c2;
  AppGraph a(test_domain(), c1, {}, stats::Rng(10));
  AppGraph b(test_domain(), c2, {}, stats::Rng(10));
  EXPECT_EQ(a.transitions(), b.transitions());
  for (std::size_t t = 0; t < a.endpoint_count(); ++t) {
    EXPECT_EQ(a.urls_of(t), b.urls_of(t));
  }
}

TEST(AppGraph, AccessorsThrowOutOfRange) {
  ObjectCatalog catalog;
  AppGraph graph(test_domain(), catalog, {}, stats::Rng(11));
  stats::Rng rng(1);
  const auto n = graph.endpoint_count();
  EXPECT_THROW((void)graph.next_template(n, rng), std::out_of_range);
  EXPECT_THROW((void)graph.instantiate(n, rng), std::out_of_range);
  EXPECT_THROW((void)graph.method_of(n), std::out_of_range);
  EXPECT_THROW((void)graph.urls_of(n), std::out_of_range);
}

TEST(AppGraph, PopularIdsInstantiateMoreOften) {
  ObjectCatalog catalog;
  AppGraph graph(test_domain(), catalog, {}, stats::Rng(12));
  // Find a parameterized template and sample it.
  for (std::size_t t = 0; t < graph.endpoint_count(); ++t) {
    if (!graph.is_parameterized(t)) continue;
    stats::Rng rng(13);
    std::map<std::string, int> counts;
    for (int i = 0; i < 5000; ++i) ++counts[graph.instantiate(t, rng)];
    // Top id (".../1000") should dominate the last one.
    const auto& urls = graph.urls_of(t);
    EXPECT_GT(counts[urls.front()], counts[urls.back()] * 3);
    break;
  }
}

}  // namespace
}  // namespace jsoncdn::workload
