// Sketch correctness: every bound the stream layer's file comments promise
// is exercised here on seeded streams — error within the configured
// epsilon/delta/alpha, and merge determinism (sharded merge equals the
// single-pass sketch bit for bit where the contract says it must).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "logs/interner.h"
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
//
// The heavy-hitter and triage sketches take dictionary symbols: each test
// interns its keys first, then offers their symbols between bind() and
// unbind(), the way StreamingAccumulator::ingest does for one table.

using Symbol = SpaceSaving::Symbol;

TEST(SpaceSaving, TracksEveryKeyAboveTheGuaranteeThreshold) {
  SpaceSaving ss(/*capacity=*/10);
  // Heavy key: 500 of 1000 total; N / capacity = 100, so it must be tracked
  // with estimate in [500, 500 + error].
  stats::Rng rng(5);
  logs::StringInterner keys;
  const Symbol heavy = keys.intern("heavy");
  std::vector<Symbol> tail;
  for (int i = 0; i < 50; ++i)
    tail.push_back(keys.intern("tail-" + std::to_string(i)));
  SpaceSaving::Scratch scratch;
  ss.bind(keys, scratch);
  std::size_t heavy_left = 500, tail_left = 500;
  while (heavy_left + tail_left > 0) {
    const bool pick_heavy =
        heavy_left > 0 &&
        (tail_left == 0 || rng.uniform() < 0.5);
    if (pick_heavy) {
      ss.offer(scratch, heavy);
      --heavy_left;
    } else {
      ss.offer(scratch, tail[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(tail.size()) - 1))]);
      --tail_left;
    }
  }
  ss.unbind(scratch);
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
  logs::StringInterner keys;
  const Symbol a = keys.intern("a");
  const Symbol b = keys.intern("b");
  const Symbol c = keys.intern("c");
  SpaceSaving::Scratch scratch;
  ss.bind(keys, scratch);
  EXPECT_EQ(ss.offer(scratch, a), SpaceSaving::kNoSymbol);
  EXPECT_EQ(ss.offer(scratch, b), SpaceSaving::kNoSymbol);
  // Existing key, no eviction.
  EXPECT_EQ(ss.offer(scratch, a), SpaceSaving::kNoSymbol);
  const Symbol evicted = ss.offer(scratch, c);
  ASSERT_NE(evicted, SpaceSaving::kNoSymbol);
  EXPECT_EQ(keys.view(evicted), "b");  // the minimum counter
  ss.unbind(scratch);
  EXPECT_TRUE(ss.contains("c"));
  EXPECT_FALSE(ss.contains("b"));
}

TEST(SpaceSaving, MergePreservesCountBounds) {
  SpaceSaving a(8);
  SpaceSaving b(8);
  logs::StringInterner keys;
  const Symbol shared = keys.intern("shared");
  std::vector<Symbol> only_a;
  std::vector<Symbol> only_b;
  for (int i = 0; i < 20; ++i) {
    only_a.push_back(keys.intern("only-a-" + std::to_string(i)));
    only_b.push_back(keys.intern("only-b-" + std::to_string(i)));
  }
  // Disjoint streams with one shared heavy key.
  SpaceSaving::Scratch scratch;
  a.bind(keys, scratch);
  for (int i = 0; i < 300; ++i) a.offer(scratch, shared);
  for (int i = 0; i < 400; ++i) a.offer(scratch, only_a[i % 20]);
  a.unbind(scratch);
  b.bind(keys, scratch);
  for (int i = 0; i < 200; ++i) b.offer(scratch, shared);
  for (int i = 0; i < 400; ++i) b.offer(scratch, only_b[i % 20]);
  b.unbind(scratch);
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

TEST(SpaceSaving, UnbindReindexesKeysThatMoved) {
  // "a" sits at the root after the first run. Offering it again in a second
  // run sifts it below "b", so unbind() must re-point both index entries.
  SpaceSaving ss(4);
  logs::StringInterner keys;
  const Symbol a = keys.intern("a");
  const Symbol b = keys.intern("b");
  const Symbol c = keys.intern("c");
  SpaceSaving::Scratch scratch;
  ss.bind(keys, scratch);
  for (const Symbol key : {a, b, c}) ss.offer(scratch, key);
  ss.unbind(scratch);
  ss.bind(keys, scratch);
  for (int i = 0; i < 3; ++i) ss.offer(scratch, a);
  ss.unbind(scratch);
  EXPECT_EQ(ss.estimate("a"), 4u);
  EXPECT_EQ(ss.estimate("b"), 1u);
  EXPECT_EQ(ss.estimate("c"), 1u);
}

TEST(SpaceSaving, RebindingToOtherDictionariesLeavesTheSameSketch) {
  // One Zipf-ish stream of 60 keys through a 12-counter sketch, offered in
  // three runs: under a dictionary of the first run's keys, under one of the
  // second run's keys interned in reverse (other symbol numbers, and no
  // "early" keys, which only the first run has), then under the first
  // again. The sketch must end as one bound to a single dictionary for the
  // whole stream ends.
  const std::size_t cut1 = 1000;
  const std::size_t cut2 = 2000;
  stats::Rng rng(9);
  std::vector<std::string> stream;
  for (std::size_t i = 0; i < 3000; ++i) {
    const auto rank = static_cast<int>(std::exp(rng.uniform(0.0, 4.1)));
    stream.push_back(i < cut1 && i % 5 == 0
                         ? "early-" + std::to_string(i % 2)
                         : "key-" + std::to_string(rank));
  }
  logs::StringInterner all;
  logs::StringInterner first;
  logs::StringInterner second;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    all.intern(stream[i]);
    if (i < cut1 || i >= cut2) first.intern(stream[i]);
  }
  for (std::size_t i = cut2; i-- > cut1;) second.intern(stream[i]);

  SpaceSaving whole(12);
  SpaceSaving split(12);
  SpaceSaving::Scratch scratch;
  whole.bind(all, scratch);
  for (const auto& key : stream) whole.offer(scratch, all.find(key));
  whole.unbind(scratch);
  const auto run = [&](const logs::StringInterner& dict, std::size_t begin,
                       std::size_t end) {
    split.bind(dict, scratch);
    for (std::size_t i = begin; i < end; ++i)
      split.offer(scratch, dict.find(stream[i]));
    split.unbind(scratch);
  };
  run(first, 0, cut1);
  // The early keys are tracked, and the second dictionary lacks them.
  for (const auto& hit : split.top(12)) {
    if (hit.key.starts_with("early-")) {
      EXPECT_EQ(second.find(hit.key), SpaceSaving::kNoSymbol);
    }
  }
  ASSERT_TRUE(split.contains("early-0"));
  ASSERT_TRUE(split.contains("early-1"));
  run(second, cut1, cut2);
  run(first, cut2, stream.size());

  EXPECT_EQ(split.total_weight(), whole.total_weight());
  EXPECT_EQ(split.memory_bytes(), whole.memory_bytes());
  const auto want = whole.top(12);
  const auto got = split.top(12);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].count, want[i].count);
    EXPECT_EQ(got[i].error, want[i].error);
    // The string -> slot index was re-synced too.
    EXPECT_EQ(split.estimate(got[i].key), got[i].count);
  }
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
  logs::StringInterner keys;
  const Symbol periodic = keys.intern("periodic");
  const Symbol small = keys.intern("small");
  const Symbol burst = keys.intern("burst");
  InterarrivalTriage::Scratch scratch;
  triage.bind(keys, scratch);
  // "periodic": 15 clients polling every 30 s with per-client phase offsets.
  // "small": only 3 clients (fails the >= 10 clients filter).
  // "burst": plenty of clients but every request in the same instant
  // (fails the minimum-span screen).
  for (int tick = 0; tick < 20; ++tick) {
    for (std::uint64_t c = 0; c < 15; ++c) {
      triage.offer(scratch, periodic, c,
                   30.0 * tick + 2.0 * static_cast<double>(c));
    }
  }
  for (int tick = 0; tick < 20; ++tick)
    for (std::uint64_t c = 0; c < 3; ++c)
      triage.offer(scratch, small, c, 30.0 * tick + static_cast<double>(c));
  for (std::uint64_t c = 0; c < 20; ++c)
    triage.offer(scratch, burst, c, 100.0);
  triage.unbind(scratch);

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
  logs::StringInterner keys;
  // Two flows; the split point lands mid-flow so merge() must stitch the
  // boundary inter-arrival gap.
  std::vector<std::tuple<Symbol, std::uint64_t, double>> events;
  const Symbol flow_a = keys.intern("flow-a");
  const Symbol flow_b = keys.intern("flow-b");
  for (int tick = 0; tick < 40; ++tick) {
    for (std::uint64_t c = 0; c < 12; ++c) {
      events.emplace_back(flow_a, c, 15.0 * tick + static_cast<double>(c));
      events.emplace_back(flow_b, c,
                          15.0 * tick + 0.5 * static_cast<double>(c));
    }
  }
  std::sort(events.begin(), events.end(), [](const auto& x, const auto& y) {
    return std::get<2>(x) < std::get<2>(y);
  });
  InterarrivalTriage::Scratch serial_scratch;
  InterarrivalTriage::Scratch first_scratch;
  InterarrivalTriage::Scratch second_scratch;
  serial.bind(keys, serial_scratch);
  first.bind(keys, first_scratch);
  second.bind(keys, second_scratch);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& [key, client, ts] = events[i];
    serial.offer(serial_scratch, key, client, ts);
    if (i < events.size() / 2) {
      first.offer(first_scratch, key, client, ts);
    } else {
      second.offer(second_scratch, key, client, ts);
    }
  }
  serial.unbind(serial_scratch);
  first.unbind(first_scratch);
  second.unbind(second_scratch);
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

TEST(InterarrivalTriage, FullClientBitmapIsFlaggedSaturated) {
  // "crowd": 5,000 distinct clients fill every bitmap bit, so its estimate
  // is only the bitmap's ceiling; "poll": 15 clients leave it unsaturated.
  logs::StringInterner keys;
  const Symbol crowd = keys.intern("crowd");
  const Symbol poll = keys.intern("poll");
  InterarrivalTriage triage;
  InterarrivalTriage::Scratch scratch;
  triage.bind(keys, scratch);
  for (std::uint64_t c = 0; c < 5000; ++c) {
    triage.offer(scratch, crowd, c, static_cast<double>(c));
    triage.offer(scratch, poll, c % 15, static_cast<double>(c));
  }
  triage.unbind(scratch);
  const auto candidates = triage.candidates();
  ASSERT_EQ(candidates.size(), 2u);
  const auto& full = candidates[0].key == "crowd" ? candidates[0] : candidates[1];
  const auto& partial = candidates[0].key == "poll" ? candidates[0] : candidates[1];
  ASSERT_EQ(full.key, "crowd");
  ASSERT_EQ(partial.key, "poll");
  const double bits = static_cast<double>(TriageConfig::client_bitmap_bits);
  EXPECT_TRUE(full.clients_saturated);
  EXPECT_DOUBLE_EQ(full.estimated_clients, bits * std::log(bits));
  EXPECT_FALSE(partial.clients_saturated);
  EXPECT_NEAR(partial.estimated_clients, 15.0, 2.0);
}

TEST(InterarrivalTriage, FlowTableStaysBounded) {
  // Twice as many distinct flows as the table holds, each offered three
  // times.
  constexpr std::uint64_t kFlows = 2 * TriageConfig::max_flows;
  logs::StringInterner keys;
  std::vector<Symbol> flows;
  for (std::uint64_t i = 0; i < kFlows; ++i)
    flows.push_back(keys.intern("flow-" + std::to_string(i)));
  InterarrivalTriage triage;
  InterarrivalTriage::Scratch scratch;
  triage.bind(keys, scratch);
  for (std::uint64_t i = 0; i < 3 * kFlows; ++i) {
    triage.offer(scratch, flows[i % kFlows], i % 37, static_cast<double>(i));
  }
  triage.unbind(scratch);
  EXPECT_LE(triage.tracked_flows(), TriageConfig::max_flows);
}

}  // namespace
}  // namespace jsoncdn::stream
