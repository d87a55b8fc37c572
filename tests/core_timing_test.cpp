#include "core/timing.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/prefetch.h"

namespace jsoncdn::core {
namespace {

TEST(GapStats, WelfordMomentsMatchClosedForm) {
  GapStats stats;
  for (const double gap : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(gap);
  }
  EXPECT_EQ(stats.count, 8u);
  EXPECT_DOUBLE_EQ(stats.mean, 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min, 2.0);
  EXPECT_DOUBLE_EQ(stats.max, 9.0);
}

TEST(GapStats, SingleObservation) {
  GapStats stats;
  stats.add(3.5);
  EXPECT_DOUBLE_EQ(stats.mean, 3.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min, 3.5);
  EXPECT_DOUBLE_EQ(stats.max, 3.5);
}

TEST(InterarrivalModel, LearnsPerTransitionGaps) {
  InterarrivalModel model;
  model.observe("a", "b", 10.0);
  model.observe("a", "b", 20.0);
  model.observe("a", "c", 100.0);
  const auto* ab = model.stats_for("a", "b");
  ASSERT_NE(ab, nullptr);
  EXPECT_DOUBLE_EQ(ab->mean, 15.0);
  EXPECT_EQ(model.transition_count(), 2u);
  EXPECT_EQ(model.observations(), 3u);
}

TEST(InterarrivalModel, ExpectedGapFallsBackSourceThenGlobal) {
  InterarrivalModel model;
  model.observe("a", "b", 10.0);
  model.observe("a", "c", 30.0);
  model.observe("x", "y", 100.0);
  // Exact transition.
  EXPECT_DOUBLE_EQ(*model.expected_gap("a", "b"), 10.0);
  // Unseen target from a known source: per-source mean.
  EXPECT_DOUBLE_EQ(*model.expected_gap("a", "zzz"), 20.0);
  // Fully unknown: global mean.
  EXPECT_NEAR(*model.expected_gap("q", "r"), 140.0 / 3.0, 1e-12);
}

TEST(InterarrivalModel, EmptyModelHasNoExpectation) {
  InterarrivalModel model;
  EXPECT_FALSE(model.expected_gap("a", "b").has_value());
}

TEST(InterarrivalModel, RejectsNegativeGaps) {
  InterarrivalModel model;
  EXPECT_THROW(model.observe("a", "b", -1.0), std::invalid_argument);
}

TEST(InterarrivalModel, KeySeparatorPreventsAmbiguity) {
  InterarrivalModel model;
  model.observe("ab", "c", 1.0);
  model.observe("a", "bc", 99.0);
  EXPECT_DOUBLE_EQ(model.stats_for("ab", "c")->mean, 1.0);
  EXPECT_DOUBLE_EQ(model.stats_for("a", "bc")->mean, 99.0);
}

TEST(InterarrivalModel, ObserveDatasetUsesClientFlows) {
  logs::LogTable ds;
  for (int c = 0; c < 3; ++c) {
    double t = c * 1000.0;
    for (const char* url : {"u1", "u2", "u3"}) {
      logs::LogRecord r;
      r.timestamp = t;
      t += 7.0;
      r.client_id = "c" + std::to_string(c);
      r.user_agent = "ua";
      r.url = url;
      r.content_type = "application/json";
      ds.append(r);
    }
  }
  InterarrivalModel model;
  model.observe_dataset(logs::TableView(ds));
  EXPECT_EQ(model.observations(), 6u);  // two transitions per client
  ASSERT_NE(model.stats_for("u1", "u2"), nullptr);
  EXPECT_DOUBLE_EQ(model.stats_for("u1", "u2")->mean, 7.0);
  // No cross-client transitions (u3 of client 0 -> u1 of client 1).
  EXPECT_EQ(model.stats_for("u3", "u1"), nullptr);
}

// --- timing-aware prefetching ----------------------------------------------

TEST(NgramPrefetcherTiming, FiltersCandidatesOutsideHorizon) {
  NgramModel ngram(1);
  std::vector<std::string> soon = {"a", "soon"};
  std::vector<std::string> late = {"a", "late"};
  for (int i = 0; i < 5; ++i) {
    ngram.observe_sequence(soon);
    ngram.observe_sequence(late);
  }
  ngram.freeze();
  InterarrivalModel timing;
  for (int i = 0; i < 5; ++i) {
    timing.observe("a", "soon", 5.0);
    timing.observe("a", "late", 4000.0);
  }
  PrefetcherParams params;
  params.min_score = 0.0;
  params.max_expected_gap_seconds = 600.0;
  NgramPrefetcher prefetcher(std::move(ngram), params);
  prefetcher.set_timing_model(std::move(timing));

  logs::LogRecord served;
  served.client_id = "c";
  served.user_agent = "ua";
  served.url = "a";
  const auto candidates = prefetcher.candidates(served);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates.front(), "soon");
  EXPECT_EQ(prefetcher.timing_filtered(), 1u);
}

TEST(NgramPrefetcherTiming, NoTimingModelMeansNoFiltering) {
  NgramModel ngram(1);
  std::vector<std::string> tokens = {"a", "b"};
  ngram.observe_sequence(tokens);
  ngram.freeze();
  PrefetcherParams params;
  params.min_score = 0.0;
  NgramPrefetcher prefetcher(std::move(ngram), params);
  logs::LogRecord served;
  served.client_id = "c";
  served.url = "a";
  EXPECT_EQ(prefetcher.candidates(served).size(), 1u);
  EXPECT_EQ(prefetcher.timing_filtered(), 0u);
}

}  // namespace
}  // namespace jsoncdn::core
