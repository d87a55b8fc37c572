#include "cdn/cache.h"

#include <gtest/gtest.h>

namespace jsoncdn::cdn {
namespace {

TEST(LruCache, InsertThenLookupHits) {
  LruCache cache(1024);
  cache.insert("a", 100, 60.0, 0.0);
  const auto hit = cache.lookup("a", 1.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 100u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(LruCache, MissOnAbsentKey) {
  LruCache cache(1024);
  EXPECT_FALSE(cache.lookup("missing", 0.0).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(LruCache, TtlExpiryCountsAsExpirationAndMiss) {
  LruCache cache(1024);
  cache.insert("a", 100, 10.0, 0.0);
  EXPECT_TRUE(cache.lookup("a", 9.99).has_value());
  EXPECT_FALSE(cache.lookup("a", 10.0).has_value());  // expires_at <= now
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST(LruCache, LookupHandsBackTheExpiredCopyItErases) {
  LruCache cache(1024);
  cache.insert("a", 100, 10.0, 0.0);
  std::optional<LruCache::StaleEntry> expired = LruCache::StaleEntry{};
  EXPECT_TRUE(cache.lookup("a", 5.0, &expired).has_value());
  EXPECT_FALSE(expired.has_value());  // a hit leaves it empty
  EXPECT_FALSE(cache.lookup("a", 12.0, &expired).has_value());
  ASSERT_TRUE(expired.has_value());
  EXPECT_EQ(expired->bytes, 100u);
  EXPECT_EQ(expired->expires_at, 10.0);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_FALSE(cache.lookup("a", 12.0, &expired).has_value());
  EXPECT_FALSE(expired.has_value());  // absent: nothing to hand back
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache cache(300);
  cache.insert("a", 100, 100.0, 0.0);
  cache.insert("b", 100, 100.0, 1.0);
  cache.insert("c", 100, 100.0, 2.0);
  (void)cache.lookup("a", 3.0);         // refresh a
  cache.insert("d", 100, 100.0, 4.0);   // evicts b (LRU)
  EXPECT_TRUE(cache.contains("a", 5.0));
  EXPECT_FALSE(cache.contains("b", 5.0));
  EXPECT_TRUE(cache.contains("c", 5.0));
  EXPECT_TRUE(cache.contains("d", 5.0));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruCache, CapacityNeverExceeded) {
  LruCache cache(250);
  for (int i = 0; i < 20; ++i) {
    cache.insert("k" + std::to_string(i), 100, 100.0, i);
    EXPECT_LE(cache.size_bytes(), 250u);
  }
  EXPECT_EQ(cache.entry_count(), 2u);
}

TEST(LruCache, OversizedObjectNotAdmitted) {
  LruCache cache(100);
  cache.insert("big", 101, 100.0, 0.0);
  EXPECT_FALSE(cache.contains("big", 1.0));
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(LruCache, NonPositiveTtlNotAdmitted) {
  LruCache cache(100);
  cache.insert("a", 10, 0.0, 0.0);
  cache.insert("b", 10, -5.0, 0.0);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(LruCache, ZeroCapacityAlwaysMisses) {
  LruCache cache(0);
  cache.insert("a", 1, 100.0, 0.0);
  EXPECT_FALSE(cache.lookup("a", 0.5).has_value());
}

TEST(LruCache, OverwriteReplacesSizeAndTtl) {
  LruCache cache(1000);
  cache.insert("a", 100, 10.0, 0.0);
  cache.insert("a", 300, 100.0, 1.0);
  EXPECT_EQ(cache.size_bytes(), 300u);
  EXPECT_EQ(cache.entry_count(), 1u);
  const auto hit = cache.lookup("a", 50.0);  // old TTL would have expired
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 300u);
}

TEST(LruCache, ContainsDoesNotTouchStatsOrRecency) {
  LruCache cache(200);
  cache.insert("a", 100, 100.0, 0.0);
  cache.insert("b", 100, 100.0, 1.0);
  (void)cache.contains("a", 2.0);  // must NOT refresh a
  cache.insert("c", 100, 100.0, 3.0);  // evicts a (still LRU)
  EXPECT_FALSE(cache.contains("a", 4.0));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(LruCache, EraseRemovesEntry) {
  LruCache cache(1000);
  cache.insert("a", 100, 100.0, 0.0);
  cache.erase("a");
  EXPECT_FALSE(cache.contains("a", 1.0));
  EXPECT_EQ(cache.size_bytes(), 0u);
  cache.erase("a");  // idempotent
}

TEST(LruCache, ClearResetsContentButKeepsStats) {
  LruCache cache(1000);
  cache.insert("a", 100, 100.0, 0.0);
  (void)cache.lookup("a", 1.0);
  cache.clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(CacheStats, HitRatioComputation) {
  CacheStats stats;
  EXPECT_DOUBLE_EQ(stats.hit_ratio(), 0.0);
  stats.hits = 3;
  stats.misses = 1;
  EXPECT_DOUBLE_EQ(stats.hit_ratio(), 0.75);
}

}  // namespace
}  // namespace jsoncdn::cdn
