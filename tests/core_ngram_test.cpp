#include "core/ngram.h"

#include <gtest/gtest.h>

#include "core/url_cluster.h"

namespace jsoncdn::core {
namespace {

std::vector<std::string> seq(std::initializer_list<const char*> tokens) {
  return {tokens.begin(), tokens.end()};
}

TEST(NgramModel, LearnsDeterministicChainExactly) {
  NgramModel model(1);
  for (int i = 0; i < 10; ++i) model.observe_sequence(seq({"a", "b", "c"}));
  model.freeze();
  const auto after_a = model.predict(seq({"a"}), 1);
  ASSERT_EQ(after_a.size(), 1u);
  EXPECT_EQ(after_a[0].token, "b");
  EXPECT_DOUBLE_EQ(after_a[0].score, 1.0);
  const auto after_b = model.predict(seq({"b"}), 1);
  ASSERT_EQ(after_b.size(), 1u);
  EXPECT_EQ(after_b[0].token, "c");
}

TEST(NgramModel, RanksByFrequency) {
  NgramModel model(1);
  for (int i = 0; i < 7; ++i) model.observe_sequence(seq({"a", "x"}));
  for (int i = 0; i < 3; ++i) model.observe_sequence(seq({"a", "y"}));
  model.freeze();
  const auto p = model.predict(seq({"a"}), 2);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0].token, "x");
  EXPECT_NEAR(p[0].score, 0.7, 1e-12);
  EXPECT_EQ(p[1].token, "y");
  EXPECT_NEAR(p[1].score, 0.3, 1e-12);
}

TEST(NgramModel, LongerContextBeatsShorterWhenAvailable) {
  NgramModel model(2);
  // After (a,b) the next is always c; after bare b it is mostly d.
  model.observe_sequence(seq({"a", "b", "c"}));
  model.observe_sequence(seq({"x", "b", "d"}));
  model.observe_sequence(seq({"y", "b", "d"}));
  model.freeze();
  const auto p = model.predict(seq({"a", "b"}), 1);
  ASSERT_FALSE(p.empty());
  EXPECT_EQ(p[0].token, "c");  // bigram "b->d" must not override (a,b)->c
}

TEST(NgramModel, BacksOffToShorterContext) {
  NgramModel model(2);
  model.observe_sequence(seq({"a", "b", "c"}));
  model.freeze();
  // Context ("z", "b") unseen; backs off to "b" -> c.
  const auto p = model.predict(seq({"z", "b"}), 1);
  ASSERT_FALSE(p.empty());
  EXPECT_EQ(p[0].token, "c");
}

TEST(NgramModel, BacksOffToUnigramPopularityForUnknownContext) {
  NgramModel model(1);
  model.observe_sequence(seq({"a", "a", "a", "b"}));
  model.freeze();
  const auto p = model.predict(seq({"never-seen"}), 1);
  ASSERT_FALSE(p.empty());
  EXPECT_EQ(p[0].token, "a");  // most popular token overall
}

TEST(NgramModel, BackoffScoresAreDiscounted) {
  NgramModel model(1);
  model.observe_sequence(seq({"a", "b"}));
  model.observe_sequence(seq({"c", "d"}));
  model.freeze();
  const auto direct = model.predict(seq({"a"}), 4);
  ASSERT_GE(direct.size(), 2u);
  // First entry from the matched context, later ones from the unigram
  // fallback at discounted score.
  EXPECT_EQ(direct[0].token, "b");
  EXPECT_GT(direct[0].score, direct[1].score);
}

TEST(NgramModel, TopKNeverRepeatsTokens) {
  NgramModel model(2);
  model.observe_sequence(seq({"a", "b", "c", "a", "b", "c"}));
  model.freeze();
  const auto p = model.predict(seq({"a", "b"}), 10);
  std::set<std::string> unique;
  for (const auto& pred : p) EXPECT_TRUE(unique.insert(pred.token).second);
}

TEST(NgramModel, DeterministicTieBreaking) {
  NgramModel model(1);
  model.observe_sequence(seq({"a", "z"}));
  model.observe_sequence(seq({"a", "b"}));  // equal counts
  model.freeze();
  const auto p = model.predict(seq({"a"}), 2);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0].token, "b");  // lexicographic among ties
}

TEST(NgramModel, ShortSequencesIgnored) {
  NgramModel model(1);
  model.observe_sequence(seq({"only"}));
  EXPECT_EQ(model.observed_transitions(), 0u);
  model.freeze();
  EXPECT_TRUE(model.predict(seq({"only"}), 3).empty());
}

TEST(NgramModel, KnowsReportsVocabulary) {
  NgramModel model(1);
  model.observe_sequence(seq({"a", "b"}));
  EXPECT_TRUE(model.knows("a"));
  EXPECT_TRUE(model.knows("b"));
  EXPECT_FALSE(model.knows("c"));
  EXPECT_EQ(model.vocabulary_size(), 2u);
}

TEST(NgramModel, KZeroYieldsNothing) {
  NgramModel model(1);
  model.observe_sequence(seq({"a", "b"}));
  model.freeze();
  EXPECT_TRUE(model.predict(seq({"a"}), 0).empty());
}

TEST(NgramModel, PredictNeedsAFreezeAfterEveryChange) {
  NgramModel model(1);
  model.observe_sequence(seq({"a", "x"}));
  EXPECT_THROW((void)model.predict(seq({"a"}), 1), std::logic_error);
  model.freeze();
  EXPECT_EQ(model.predict(seq({"a"}), 1).at(0).token, "x");
  // New counts are invisible until the next freeze(), so predict refuses.
  model.observe_sequence(seq({"a", "y"}));
  model.observe_sequence(seq({"a", "y"}));
  EXPECT_THROW((void)model.predict(seq({"a"}), 1), std::logic_error);
  NgramModel other(1);
  model.freeze();
  model.merge(other);
  EXPECT_THROW((void)model.predict(seq({"a"}), 1), std::logic_error);
  model.freeze();
  EXPECT_EQ(model.predict(seq({"a"}), 1).at(0).token, "y");
}

TEST(NgramModel, RejectsZeroContext) {
  EXPECT_THROW(NgramModel(0), std::invalid_argument);
}

TEST(NgramModel, UnknownTokenMidHistoryUsesSuffix) {
  NgramModel model(2);
  model.observe_sequence(seq({"a", "b", "c"}));
  // "?? b" with ?? unknown: only "b" usable -> predicts c.
  model.freeze();
  const auto p = model.predict(seq({"??", "b"}), 1);
  ASSERT_FALSE(p.empty());
  EXPECT_EQ(p[0].token, "c");
}

// ---- evaluate_ngram on a hand-built dataset -------------------------------

logs::LogTable chain_dataset(std::size_t n_clients,
                            std::size_t repeats_per_client) {
  // Every client requests the exact cycle u1 -> u2 -> u3.
  logs::LogTable ds;
  double t = 0.0;
  for (std::size_t c = 0; c < n_clients; ++c) {
    for (std::size_t r = 0; r < repeats_per_client; ++r) {
      for (const char* url : {"https://h/a/1", "https://h/b/2",
                              "https://h/c/3"}) {
        logs::LogRecord rec;
        rec.timestamp = t;
        t += 1.0;
        rec.client_id = "client" + std::to_string(c);
        rec.user_agent = "ua";
        rec.url = url;
        rec.domain = "h";
        rec.content_type = "application/json";
        ds.append(rec);
      }
    }
  }
  return ds;
}

TEST(EvaluateNgram, PerfectChainScoresNearOne) {
  const auto ds = chain_dataset(40, 5);
  NgramEvalConfig config;
  config.context_len = 1;
  const auto result = evaluate_ngram(logs::TableView(ds), config);
  EXPECT_GT(result.train_clients, 0u);
  EXPECT_GT(result.test_clients, 0u);
  EXPECT_GT(result.predictions, 0u);
  // Only the first transition of each test flow (no history of the cycle
  // start) can miss; everything else is deterministic.
  EXPECT_GT(result.accuracy_at.at(1), 0.9);
}

TEST(EvaluateNgram, AccuracyMonotoneInK) {
  const auto ds = chain_dataset(40, 5);
  NgramEvalConfig config;
  const auto result = evaluate_ngram(logs::TableView(ds), config);
  EXPECT_LE(result.accuracy_at.at(1), result.accuracy_at.at(5));
  EXPECT_LE(result.accuracy_at.at(5), result.accuracy_at.at(10));
}

TEST(EvaluateNgram, ClusteredAtLeastAsGoodOnParameterizedChains) {
  // Clients cycle template /a/{i} with client-specific ids: raw URLs differ
  // per client, clusters agree.
  logs::LogTable ds;
  double t = 0.0;
  for (int c = 0; c < 40; ++c) {
    for (int r = 0; r < 6; ++r) {
      for (const char* step : {"x", "y"}) {
        logs::LogRecord rec;
        rec.timestamp = t;
        t += 1.0;
        rec.client_id = "client" + std::to_string(c);
        rec.user_agent = "ua";
        rec.url = "https://h/" + std::string(step) + "/" +
                  std::to_string(1000 + c);
        rec.domain = "h";
        rec.content_type = "application/json";
        ds.append(rec);
      }
    }
  }
  NgramEvalConfig raw;
  NgramEvalConfig clustered = raw;
  clustered.clustered = true;
  const auto raw_result = evaluate_ngram(logs::TableView(ds), raw);
  const auto clustered_result = evaluate_ngram(logs::TableView(ds), clustered);
  EXPECT_GT(clustered_result.accuracy_at.at(1),
            raw_result.accuracy_at.at(1) + 0.3);
}

TEST(EvaluateNgram, SplitIsClientDisjointAndStable) {
  const auto ds = chain_dataset(100, 2);
  NgramEvalConfig config;
  const auto r1 = evaluate_ngram(logs::TableView(ds), config);
  const auto r2 = evaluate_ngram(logs::TableView(ds), config);
  EXPECT_EQ(r1.train_clients, r2.train_clients);
  EXPECT_EQ(r1.train_clients + r1.test_clients, 100u);
  EXPECT_NEAR(static_cast<double>(r1.train_clients) / 100.0, 0.8, 0.12);
}

TEST(EvaluateNgram, RejectsBadConfig) {
  const auto ds = chain_dataset(4, 1);
  NgramEvalConfig config;
  config.context_len = 0;
  EXPECT_THROW((void)evaluate_ngram(logs::TableView(ds), config),
               std::invalid_argument);
}

}  // namespace
}  // namespace jsoncdn::core
