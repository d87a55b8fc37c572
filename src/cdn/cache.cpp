#include "cdn/cache.h"

namespace jsoncdn::cdn {

LruCache::LruCache(std::uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

std::optional<std::uint64_t> LruCache::lookup(
    std::string_view key, double now, std::optional<StaleEntry>* expired) {
  if (expired != nullptr) expired->reset();
  const auto it = entries_.find(std::string(key));
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (it->second->expires_at <= now) {
    if (expired != nullptr) {
      *expired = StaleEntry{it->second->bytes, it->second->expires_at};
    }
    used_ -= it->second->bytes;
    lru_.erase(it->second);
    entries_.erase(it);
    ++stats_.expirations;
    ++stats_.misses;
    return std::nullopt;
  }
  // Refresh recency: splice the entry to the front.
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return it->second->bytes;
}

void LruCache::insert(std::string_view key, std::uint64_t bytes, double ttl,
                      double now) {
  if (bytes > capacity_ || ttl <= 0.0) return;  // not admissible
  const std::string k(key);
  if (const auto it = entries_.find(k); it != entries_.end()) {
    used_ -= it->second->bytes;
    lru_.erase(it->second);
    entries_.erase(it);
  }
  while (used_ + bytes > capacity_ && !lru_.empty()) evict_lru();
  lru_.push_front(Entry{k, bytes, now + ttl});
  entries_[k] = lru_.begin();
  used_ += bytes;
  ++stats_.insertions;
}

std::optional<std::uint64_t> LruCache::peek_stale(std::string_view key,
                                                  double now) const {
  const auto it = entries_.find(std::string(key));
  if (it == entries_.end() || it->second->expires_at > now)
    return std::nullopt;
  return it->second->bytes;
}

void LruCache::restore(std::string_view key, std::uint64_t bytes,
                       double expires_at) {
  if (bytes > capacity_) return;
  const std::string k(key);
  if (const auto it = entries_.find(k); it != entries_.end()) {
    used_ -= it->second->bytes;
    lru_.erase(it->second);
    entries_.erase(it);
  }
  while (used_ + bytes > capacity_ && !lru_.empty()) evict_lru();
  lru_.push_front(Entry{k, bytes, expires_at});
  entries_[k] = lru_.begin();
  used_ += bytes;
  ++stats_.insertions;
}

bool LruCache::contains(std::string_view key, double now) const {
  const auto it = entries_.find(std::string(key));
  return it != entries_.end() && it->second->expires_at > now;
}

void LruCache::erase(std::string_view key) {
  const auto it = entries_.find(std::string(key));
  if (it == entries_.end()) return;
  used_ -= it->second->bytes;
  lru_.erase(it->second);
  entries_.erase(it);
}

void LruCache::clear() {
  lru_.clear();
  entries_.clear();
  used_ = 0;
}

void LruCache::evict_lru() {
  const auto& victim = lru_.back();
  used_ -= victim.bytes;
  entries_.erase(victim.key);
  lru_.pop_back();
  ++stats_.evictions;
}

}  // namespace jsoncdn::cdn
