#include <gtest/gtest.h>

#include "core/anomaly.h"
#include "core/prefetch.h"

namespace jsoncdn::core {
namespace {

std::vector<std::string> seq(std::initializer_list<const char*> tokens) {
  return {tokens.begin(), tokens.end()};
}

NgramModel chain_model() {
  NgramModel model(1);
  for (int i = 0; i < 20; ++i) {
    model.observe_sequence(seq({"a", "b", "c", "a", "b", "c"}));
  }
  model.freeze();
  return model;
}

TEST(ScoreSequence, ConformingFlowHasLowSurprisal) {
  const auto model = chain_model();
  const auto score = score_sequence(model, seq({"a", "b", "c", "a", "b"}));
  EXPECT_EQ(score.unpredicted, 0u);
  EXPECT_LT(score.mean_surprisal, 2.0);
}

TEST(ScoreSequence, OrderViolationScoresHigherThanNovelty) {
  const auto model = chain_model();
  // Known tokens in impossible order. k=1: the vocabulary is tiny, so any
  // larger k would cover it from the unigram backoff alone.
  const auto violation =
      score_sequence(model, seq({"c", "b", "a", "c", "b"}), 1);
  // Unknown tokens entirely.
  const auto novel = score_sequence(model, seq({"x", "y", "z", "w", "v"}), 1);
  EXPECT_GT(violation.mean_surprisal, novel.mean_surprisal);
  EXPECT_EQ(novel.novel, novel.unpredicted);
  EXPECT_GT(violation.unpredicted, 0u);
  EXPECT_EQ(violation.novel, 0u);
}

TEST(ScoreSequence, ShortSequencesScoreZeroTransitions) {
  const auto model = chain_model();
  const auto score = score_sequence(model, seq({"a"}));
  EXPECT_EQ(score.transitions, 0u);
  EXPECT_DOUBLE_EQ(score.mean_surprisal, 0.0);
}

TEST(ScoreSequence, RejectsZeroK) {
  const auto model = chain_model();
  EXPECT_THROW((void)score_sequence(model, seq({"a", "b"}), 0),
               std::invalid_argument);
}

TEST(CheckPeriod, SteadyFlowConforms) {
  std::vector<double> times;
  for (int i = 0; i < 30; ++i) times.push_back(10.0 * i);
  const auto result = check_period(times, 10.0);
  EXPECT_EQ(result.deviant_gaps, 0u);
  EXPECT_DOUBLE_EQ(result.deviant_share, 0.0);
}

TEST(CheckPeriod, MissedTicksAreNotDeviant) {
  // Gaps of exactly 2 periods (dropout) conform to the schedule.
  const std::vector<double> times = {0.0, 10.0, 30.0, 40.0, 60.0};
  const auto result = check_period(times, 10.0);
  EXPECT_EQ(result.deviant_gaps, 0u);
}

TEST(CheckPeriod, OffScheduleGapsFlagged) {
  const std::vector<double> times = {0.0, 10.0, 25.5, 40.0};
  // Gaps: 10 (ok), 15.5 (neither 10 nor 20 within 25%), 14.5 (deviant too).
  const auto result = check_period(times, 10.0);
  EXPECT_EQ(result.gaps, 3u);
  EXPECT_EQ(result.deviant_gaps, 2u);
}

TEST(CheckPeriod, RejectsBadArguments) {
  const std::vector<double> times = {0.0, 1.0};
  EXPECT_THROW((void)check_period(times, 0.0), std::invalid_argument);
  EXPECT_THROW((void)check_period(times, 10.0, 0.0), std::invalid_argument);
}

// ---- prefetcher -----------------------------------------------------------

logs::LogRecord served(const std::string& client, const std::string& url) {
  logs::LogRecord r;
  r.client_id = client;
  r.user_agent = "ua";
  r.url = url;
  r.content_type = "application/json";
  return r;
}

TEST(NgramPrefetcher, SuggestsLikelyNextUrls) {
  NgramPrefetcher prefetcher(chain_model(), PrefetcherParams{});
  const auto candidates = prefetcher.candidates(served("c1", "a"));
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates.front(), "b");
}

TEST(NgramPrefetcher, NeverSuggestsTheServedUrl) {
  NgramModel model(1);
  model.observe_sequence(seq({"a", "a", "a", "b"}));
  model.freeze();
  NgramPrefetcher prefetcher(std::move(model), PrefetcherParams{});
  for (const auto& c : prefetcher.candidates(served("c1", "a"))) {
    EXPECT_NE(c, "a");
  }
}

TEST(NgramPrefetcher, UsesPerClientHistory) {
  NgramModel model(2);
  for (int i = 0; i < 10; ++i) {
    model.observe_sequence(seq({"a", "b", "x"}));
    model.observe_sequence(seq({"z", "b", "y"}));
  }
  model.freeze();
  NgramPrefetcher prefetcher(std::move(model), PrefetcherParams{});
  (void)prefetcher.candidates(served("c1", "a"));
  const auto after_ab = prefetcher.candidates(served("c1", "b"));
  ASSERT_FALSE(after_ab.empty());
  EXPECT_EQ(after_ab.front(), "x");  // (a,b) context, not bare b
  // A different client with (z,b) history gets y.
  (void)prefetcher.candidates(served("c2", "z"));
  const auto after_zb = prefetcher.candidates(served("c2", "b"));
  ASSERT_FALSE(after_zb.empty());
  EXPECT_EQ(after_zb.front(), "y");
}

TEST(NgramPrefetcher, ConfidenceFloorFiltersWeakPredictions) {
  NgramModel model(1);
  // 21 equally likely continuations: each scores < 0.05.
  for (int i = 0; i < 21; ++i) {
    const std::vector<std::string> tokens = {"a", "t" + std::to_string(i)};
    model.observe_sequence(tokens);
  }
  model.freeze();
  PrefetcherParams params;
  params.min_score = 0.05;
  NgramPrefetcher prefetcher(std::move(model), params);
  EXPECT_TRUE(prefetcher.candidates(served("c1", "a")).empty());
}

TEST(TrainPrefetchModel, BuildsFromClientFlows) {
  logs::LogTable ds;
  double t = 0.0;
  for (int c = 0; c < 5; ++c) {
    for (const char* url : {"u1", "u2", "u3"}) {
      logs::LogRecord r;
      r.timestamp = t;
      t += 1.0;
      r.client_id = "c" + std::to_string(c);
      r.user_agent = "ua";
      r.url = url;
      r.content_type = "application/json";
      ds.append(r);
    }
  }
  const auto model = train_prefetch_model(logs::TableView(ds), 1);
  EXPECT_EQ(model.vocabulary_size(), 3u);
  EXPECT_GT(model.observed_transitions(), 0u);
}

}  // namespace
}  // namespace jsoncdn::core
