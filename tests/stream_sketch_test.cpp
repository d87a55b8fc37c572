// Sketch correctness: every bound the stream layer's file comments promise
// is exercised here on seeded streams — error within the configured
// epsilon/delta/alpha, and merge determinism (sharded merge equals the
// single-pass sketch bit for bit where the contract says it must).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "stats/descriptive.h"
#include "stats/rng.h"
#include "stream/countmin.h"
#include "stream/hyperloglog.h"
#include "stream/quantile.h"
#include "stream/spacesaving.h"
#include "stream/triage.h"

namespace jsoncdn::stream {
namespace {

// ---- Count-Min ------------------------------------------------------------

TEST(CountMin, NeverUnderestimatesAndRespectsEpsilonBound) {
  CountMinSketch cms(/*epsilon=*/1e-3, /*delta=*/1e-3, /*seed=*/7);
  // Zipf-ish truth: key i appears 2000 / (i + 1) times.
  std::vector<std::uint64_t> truth(500);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    truth[i] = 2000 / (i + 1);
    cms.add("key-" + std::to_string(i), truth[i]);
  }
  const double bound = cms.error_bound();
  EXPECT_GT(cms.total_weight(), 0u);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const auto est = cms.estimate("key-" + std::to_string(i));
    EXPECT_GE(est, truth[i]);
    EXPECT_LE(static_cast<double>(est), static_cast<double>(truth[i]) + bound);
  }
  // A key never added can only report collision mass, within the same bound.
  EXPECT_LE(static_cast<double>(cms.estimate("never-added")), bound);
}

TEST(CountMin, ShardedMergeIsBitIdenticalToSinglePass) {
  const auto make = [] { return CountMinSketch(5e-3, 1e-2, /*seed=*/42); };
  CountMinSketch single = make();
  CountMinSketch shard_a = make();
  CountMinSketch shard_b = make();
  CountMinSketch shard_c = make();
  stats::Rng rng(123);
  for (std::size_t i = 0; i < 3000; ++i) {
    const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 400));
    single.add(key);
    (i % 3 == 0 ? shard_a : i % 3 == 1 ? shard_b : shard_c).add(key);
  }
  shard_a.merge(shard_b);
  shard_a.merge(shard_c);
  EXPECT_EQ(shard_a.total_weight(), single.total_weight());
  for (std::uint64_t key = 0; key <= 450; ++key)
    EXPECT_EQ(shard_a.estimate(key), single.estimate(key)) << key;
}

TEST(CountMin, MergeRejectsMismatchedShapes) {
  CountMinSketch a(1e-3, 1e-3, 1);
  CountMinSketch wider(1e-4, 1e-3, 1);
  CountMinSketch reseeded(1e-3, 1e-3, 2);
  EXPECT_THROW(a.merge(wider), std::invalid_argument);
  EXPECT_THROW(a.merge(reseeded), std::invalid_argument);
}

// ---- HyperLogLog ----------------------------------------------------------

TEST(HyperLogLog, EstimatesWithinThreeSigmaAcrossRange) {
  for (const std::size_t cardinality : {100u, 5000u, 200000u}) {
    HyperLogLog hll(/*precision=*/12);
    for (std::size_t i = 0; i < cardinality; ++i)
      hll.add(stats::splitmix64(i));
    const double est = hll.estimate();
    const double tolerance =
        3.0 * hll.standard_error() * static_cast<double>(cardinality);
    EXPECT_NEAR(est, static_cast<double>(cardinality), tolerance)
        << "cardinality " << cardinality;
  }
}

TEST(HyperLogLog, MergeIsBitIdenticalAndIdempotent) {
  HyperLogLog single(10);
  HyperLogLog shard_a(10);
  HyperLogLog shard_b(10);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const auto h = stats::splitmix64(i);
    single.add(h);
    (i % 2 == 0 ? shard_a : shard_b).add(h);
    // Overlap: both shards see every 5th element, as duplicated records
    // across shards would.
    if (i % 5 == 0) {
      shard_a.add(h);
      shard_b.add(h);
    }
  }
  shard_a.merge(shard_b);
  EXPECT_DOUBLE_EQ(shard_a.estimate(), single.estimate());
  // Merging the same state again must change nothing (register-wise max).
  const double before = shard_a.estimate();
  shard_a.merge(shard_b);
  EXPECT_DOUBLE_EQ(shard_a.estimate(), before);
}

TEST(HyperLogLog, MergeRejectsMismatchedPrecision) {
  HyperLogLog a(10);
  HyperLogLog b(12);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// ---- Quantile sketch ------------------------------------------------------

// Exact quantile under the sketch's own rank convention.
double exact_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::llround(q * static_cast<double>(values.size() - 1)));
  return values[std::min(rank, values.size() - 1)];
}

TEST(QuantileSketch, RelativeErrorWithinAlpha) {
  const double alpha = 0.01;
  QuantileSketch sketch(alpha);
  stats::Rng rng(99);
  std::vector<double> values;
  values.reserve(50000);
  for (std::size_t i = 0; i < 50000; ++i) {
    // Log-normal, like response body sizes.
    const double v = std::exp(rng.normal(8.0, 1.5));
    values.push_back(v);
    sketch.add(v);
  }
  for (const double q : {0.01, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double exact = exact_quantile(values, q);
    const double est = sketch.quantile(q);
    EXPECT_NEAR(est, exact, alpha * exact * 1.05) << "q=" << q;
  }
}

TEST(QuantileSketch, ShardedMergeIsBitIdenticalToSinglePass) {
  QuantileSketch single(0.02);
  QuantileSketch shard_a(0.02);
  QuantileSketch shard_b(0.02);
  stats::Rng rng(7);
  for (std::size_t i = 0; i < 10000; ++i) {
    const double v = rng.uniform(0.0, 1e6);
    single.add(v);
    (i % 2 == 0 ? shard_a : shard_b).add(v);
  }
  shard_a.merge(shard_b);
  EXPECT_EQ(shard_a.count(), single.count());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(shard_a.quantile(q), single.quantile(q)) << "q=" << q;
}

TEST(QuantileSketch, ZeroValuesLandInZeroBucket) {
  QuantileSketch sketch(0.01);
  sketch.add(0.0, 60);
  sketch.add(1000.0, 40);
  EXPECT_EQ(sketch.quantile(0.25), 0.0);
  EXPECT_NEAR(sketch.quantile(0.99), 1000.0, 1000.0 * 0.011);
}

TEST(QuantileSketch, MergeRejectsMismatchedAlpha) {
  QuantileSketch a(0.01);
  QuantileSketch b(0.02);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// ---- Space-Saving ---------------------------------------------------------

TEST(SpaceSaving, TracksEveryKeyAboveTheGuaranteeThreshold) {
  SpaceSaving ss(/*capacity=*/10);
  // Heavy key: 500 of 1000 total; N / capacity = 100, so it must be tracked
  // with estimate in [500, 500 + error].
  stats::Rng rng(5);
  std::vector<std::string> tail;
  for (int i = 0; i < 50; ++i) tail.push_back("tail-" + std::to_string(i));
  std::size_t heavy_left = 500, tail_left = 500;
  while (heavy_left + tail_left > 0) {
    const bool pick_heavy =
        heavy_left > 0 &&
        (tail_left == 0 || rng.uniform() < 0.5);
    if (pick_heavy) {
      ss.offer("heavy");
      --heavy_left;
    } else {
      ss.offer(tail[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(tail.size()) - 1))]);
      --tail_left;
    }
  }
  ASSERT_TRUE(ss.contains("heavy"));
  const auto top = ss.top(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key, "heavy");
  EXPECT_GE(top[0].count, 500u);
  EXPECT_LE(top[0].count - top[0].error, 500u);
  EXPECT_LE(static_cast<double>(top[0].error), ss.error_bound());
}

TEST(SpaceSaving, OfferReportsEvictionsSoCallersCanDropState) {
  SpaceSaving ss(2);
  EXPECT_FALSE(ss.offer("a").has_value());
  EXPECT_FALSE(ss.offer("b").has_value());
  EXPECT_FALSE(ss.offer("a").has_value());  // existing key, no eviction
  const auto evicted = ss.offer("c");
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, "b");  // the minimum counter
  EXPECT_TRUE(ss.contains("c"));
  EXPECT_FALSE(ss.contains("b"));
}

TEST(SpaceSaving, MergePreservesCountBounds) {
  SpaceSaving a(8);
  SpaceSaving b(8);
  // Disjoint streams with one shared heavy key.
  for (int i = 0; i < 300; ++i) a.offer("shared");
  for (int i = 0; i < 200; ++i) b.offer("shared");
  for (int i = 0; i < 400; ++i) a.offer("only-a-" + std::to_string(i % 20));
  for (int i = 0; i < 400; ++i) b.offer("only-b-" + std::to_string(i % 20));
  a.merge(b);
  EXPECT_EQ(a.total_weight(), 1300u);
  ASSERT_TRUE(a.contains("shared"));
  const auto est = a.estimate("shared");
  EXPECT_GE(est, 500u);
  const auto top = a.top(1);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].key, "shared");
  EXPECT_LE(top[0].count - top[0].error, 500u);
}

// ---- RunningMoments -------------------------------------------------------

TEST(RunningMoments, MatchesDirectComputation) {
  stats::RunningMoments m;
  stats::Rng rng(11);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.normal(10.0, 3.0);
    values.push_back(v);
    m.add(v);
  }
  double sum = 0.0;
  for (const double v : values) sum += v;
  const double mean = sum / static_cast<double>(values.size());
  double m2 = 0.0;
  for (const double v : values) m2 += (v - mean) * (v - mean);
  const double variance = m2 / static_cast<double>(values.size());
  EXPECT_EQ(m.count(), values.size());
  EXPECT_NEAR(m.mean(), mean, 1e-9 * std::abs(mean));
  EXPECT_NEAR(m.variance(), variance, 1e-9 * variance);
}

TEST(RunningMoments, MergeMatchesSequentialIngest) {
  stats::RunningMoments whole, first_half, second_half;
  stats::Rng rng(12);
  for (int i = 0; i < 4000; ++i) {
    const double v = rng.exponential(0.25);
    whole.add(v);
    (i < 2000 ? first_half : second_half).add(v);
  }
  first_half.merge(second_half);
  EXPECT_EQ(first_half.count(), whole.count());
  EXPECT_NEAR(first_half.mean(), whole.mean(), 1e-9 * whole.mean());
  EXPECT_NEAR(first_half.variance(), whole.variance(),
              1e-9 * whole.variance());
  EXPECT_NEAR(first_half.coefficient_of_variation(),
              whole.coefficient_of_variation(), 1e-9);
}

// ---- Inter-arrival triage -------------------------------------------------

TEST(InterarrivalTriage, PassesPeriodicFlowsAndScreensOutIneligibleOnes) {
  InterarrivalTriage triage;
  // "periodic": 15 clients polling every 30 s with per-client phase offsets.
  // "small": only 3 clients (fails the >= 10 clients filter).
  // "burst": plenty of clients but every request in the same instant
  // (fails the minimum-span screen).
  for (int tick = 0; tick < 20; ++tick) {
    for (std::uint64_t c = 0; c < 15; ++c) {
      triage.offer("periodic", c,
                   30.0 * tick + 2.0 * static_cast<double>(c));
    }
  }
  for (int tick = 0; tick < 20; ++tick)
    for (std::uint64_t c = 0; c < 3; ++c)
      triage.offer("small", c, 30.0 * tick + static_cast<double>(c));
  for (std::uint64_t c = 0; c < 20; ++c) triage.offer("burst", c, 100.0);

  const auto candidates = triage.candidates();
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].key, "periodic");
  EXPECT_EQ(candidates[0].requests, 300u);
  EXPECT_GE(candidates[0].estimated_clients, 10.0);
  EXPECT_LE(candidates[0].gap_cv, TriageConfig::max_gap_cv);
}

TEST(InterarrivalTriage, ChunkMergeMatchesSerialIngest) {
  InterarrivalTriage serial;
  InterarrivalTriage first;
  InterarrivalTriage second;
  // Two flows; the split point lands mid-flow so merge() must stitch the
  // boundary inter-arrival gap.
  std::vector<std::tuple<std::string, std::uint64_t, double>> events;
  for (int tick = 0; tick < 40; ++tick) {
    for (std::uint64_t c = 0; c < 12; ++c) {
      events.emplace_back("flow-a", c, 15.0 * tick + static_cast<double>(c));
      events.emplace_back("flow-b", c,
                          15.0 * tick + 0.5 * static_cast<double>(c));
    }
  }
  std::sort(events.begin(), events.end(), [](const auto& x, const auto& y) {
    return std::get<2>(x) < std::get<2>(y);
  });
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& [key, client, ts] = events[i];
    serial.offer(key, client, ts);
    (i < events.size() / 2 ? first : second).offer(key, client, ts);
  }
  first.merge(second);
  const auto expect = serial.candidates();
  const auto got = first.candidates();
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, expect[i].key);
    EXPECT_EQ(got[i].requests, expect[i].requests);
    EXPECT_DOUBLE_EQ(got[i].span_seconds, expect[i].span_seconds);
    // Welford merge reassociates the floating-point sums; the gap sample
    // *set* is identical, so the moments agree to rounding error.
    EXPECT_NEAR(got[i].mean_gap, expect[i].mean_gap, 1e-9);
    EXPECT_NEAR(got[i].gap_cv, expect[i].gap_cv, 1e-9);
    EXPECT_DOUBLE_EQ(got[i].estimated_clients, expect[i].estimated_clients);
  }
}

TEST(InterarrivalTriage, FlowTableStaysBounded) {
  // Twice as many distinct flows as the table holds, each offered three
  // times.
  constexpr std::uint64_t kFlows = 2 * TriageConfig::max_flows;
  InterarrivalTriage triage;
  for (std::uint64_t i = 0; i < 3 * kFlows; ++i) {
    triage.offer("flow-" + std::to_string(i % kFlows), i % 37,
                 static_cast<double>(i));
  }
  EXPECT_LE(triage.tracked_flows(), TriageConfig::max_flows);
}

}  // namespace
}  // namespace jsoncdn::stream
