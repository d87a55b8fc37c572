// Edge cache: byte-capacity LRU with per-entry TTL. Customer configuration
// decides *whether* an object may be cached (the paper: "CDN customers
// decide whether a response is cacheable"); the cache decides *what stays*
// under capacity pressure.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace jsoncdn::cdn {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;      // capacity evictions
  std::uint64_t expirations = 0;    // TTL evictions observed at lookup
  [[nodiscard]] double hit_ratio() const noexcept {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class LruCache {
 public:
  // capacity_bytes == 0 disables caching entirely (every lookup misses).
  explicit LruCache(std::uint64_t capacity_bytes);

  // A present-but-expired entry with its expiry time: revalidation needs
  // the copy, and stale-if-error needs to know *how* stale it is.
  struct StaleEntry {
    std::uint64_t bytes = 0;
    double expires_at = 0.0;
  };

  // Returns the stored size if `key` is present and fresh at `now`;
  // refreshes recency. An expired entry is erased and counted; when
  // `expired` is given, it receives that entry (and stays empty on a hit
  // or when the key is absent).
  [[nodiscard]] std::optional<std::uint64_t> lookup(
      std::string_view key, double now,
      std::optional<StaleEntry>* expired = nullptr);

  // Inserts/overwrites an entry valid until now + ttl. Objects larger than
  // the whole cache are not admitted. Evicts LRU entries as needed.
  void insert(std::string_view key, std::uint64_t bytes, double ttl,
              double now);

  // True if present and fresh, without touching recency or stats.
  [[nodiscard]] bool contains(std::string_view key, double now) const;
  // Size of a present-but-expired entry, if any — the revalidation case: the
  // bytes are still on disk, only freshness lapsed. Does not erase or touch
  // stats; a subsequent insert() refreshes the entry.
  [[nodiscard]] std::optional<std::uint64_t> peek_stale(std::string_view key,
                                                        double now) const;

  // Re-admits an entry with an explicit absolute expiry (possibly already in
  // the past) — used by the stale-if-error path to put back the stale copy
  // that lookup() evicted, so later requests during the same origin outage
  // can still be served stale.
  void restore(std::string_view key, std::uint64_t bytes, double expires_at);
  void erase(std::string_view key);
  void clear();

  [[nodiscard]] std::uint64_t size_bytes() const noexcept { return used_; }
  [[nodiscard]] std::uint64_t capacity_bytes() const noexcept {
    return capacity_;
  }
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return entries_.size();
  }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

 private:
  struct Entry {
    std::string key;
    std::uint64_t bytes = 0;
    double expires_at = 0.0;
  };
  using LruList = std::list<Entry>;

  void evict_lru();

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> entries_;
  CacheStats stats_;
};

}  // namespace jsoncdn::cdn
