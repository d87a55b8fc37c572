#include "logs/interner.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

namespace jsoncdn::logs {

namespace {

std::uint64_t load64(const unsigned char* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t load32(const unsigned char* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// The 128-bit product of a and b, folded to 64 bits.
std::uint64_t fold_multiply(std::uint64_t a, std::uint64_t b) noexcept {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
}

// Word-at-a-time hash: the interned strings are short keys (URLs, client
// ids, user agents), so eight bytes per step beat FNV-1a's byte loop. Only
// slot placement depends on it, never a symbol, so it need not be stable
// across platforms.
std::uint64_t hash_string(std::string_view s) noexcept {
  constexpr std::uint64_t kA = 0xa0761d6478bd642fULL;
  constexpr std::uint64_t kB = 0xe7037ed1a0b428dbULL;
  const auto* p = reinterpret_cast<const unsigned char*>(s.data());
  std::size_t n = s.size();
  std::uint64_t h = kA ^ n;
  std::uint64_t last = 0;
  if (n >= 8) {
    for (; n > 8; p += 8, n -= 8) h = fold_multiply(load64(p) ^ kB, h ^ kA);
    last = load64(p + n - 8);  // overlaps the previous word unless n == 8
  } else if (n >= 4) {
    last = (load32(p) << 32) | load32(p + n - 4);
  } else if (n > 0) {
    last = (std::uint64_t{p[0]} << 16) | (std::uint64_t{p[n / 2]} << 8) |
           p[n - 1];
  }
  return fold_multiply(last ^ kB, h ^ kA);
}

constexpr std::size_t kMinSlots = 16;

// Slots that hold `symbols` entries at most half full.
std::size_t slots_for(std::size_t symbols) noexcept {
  return std::max(std::bit_ceil(2 * symbols), kMinSlots);
}

}  // namespace

std::string_view StringInterner::arena_store(std::string_view s) {
  if (s.empty()) return std::string_view();
  if (block_used_ + s.size() > block_capacity_) {
    const std::size_t cap = std::max(kBlockBytes, s.size());
    blocks_.push_back(std::make_unique<char[]>(cap));
    block_used_ = 0;
    block_capacity_ = cap;
    arena_bytes_ += cap;
  }
  char* dst = blocks_.back().get() + block_used_;
  std::memcpy(dst, s.data(), s.size());
  block_used_ += s.size();
  return std::string_view(dst, s.size());
}

std::size_t StringInterner::probe(std::uint64_t hash,
                                  std::string_view s) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.symbol == kNoSymbol ||
        (slot.hash == hash && std::string_view(slot.data, slot.size) == s)) {
      return i;
    }
  }
}

StringInterner::Symbol StringInterner::intern_hashed(std::uint64_t hash,
                                                     std::string_view s) {
  const std::size_t i = probe(hash, s);
  if (slots_[i].symbol != kNoSymbol) return slots_[i].symbol;
  return insert(i, hash, s);
}

StringInterner::Symbol StringInterner::insert(std::size_t i,
                                              std::uint64_t hash,
                                              std::string_view s) {
  if (views_.size() >= static_cast<std::size_t>(kNoSymbol)) {
    throw std::length_error("StringInterner: symbol space exhausted");
  }
  if (s.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("StringInterner: string longer than 4 GiB");
  }
  if (2 * (views_.size() + 1) > slots_.size()) {
    rehash(2 * slots_.size());
    i = probe(hash, s);
  }
  const auto id = static_cast<Symbol>(views_.size());
  const auto stable = arena_store(s);
  views_.push_back(stable);
  slots_[i] = Slot{hash, stable.data(), static_cast<std::uint32_t>(s.size()),
                   id};
  return id;
}

StringInterner::Symbol StringInterner::intern(std::string_view s) {
  if (slots_.empty()) rehash(kMinSlots);
  return intern_hashed(hash_string(s), s);
}

void StringInterner::intern_batch(std::span<const std::string_view> strings,
                                  Symbol* out) {
  const std::size_t n = strings.size();
  std::vector<std::uint64_t> hashes(n);
  for (std::size_t k = 0; k < n; ++k) hashes[k] = hash_string(strings[k]);
  if (slots_.empty()) rehash(kMinSlots);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t mask = slots_.size() - 1;
    if (k + 2 * kPrefetchAhead < n) {
      __builtin_prefetch(&slots_[hashes[k + 2 * kPrefetchAhead] & mask]);
    }
    if (k + kPrefetchAhead < n) {
      __builtin_prefetch(slots_[hashes[k + kPrefetchAhead] & mask].data);
    }
    out[k] = intern_hashed(hashes[k], strings[k]);
  }
}

StringInterner::Symbol StringInterner::find(std::string_view s) const noexcept {
  if (slots_.empty()) return kNoSymbol;
  return slots_[probe(hash_string(s), s)].symbol;
}

void StringInterner::rehash(std::size_t slot_count) {
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(slot_count));
  const std::size_t mask = slot_count - 1;
  for (const Slot& slot : old) {
    if (slot.symbol == kNoSymbol) continue;
    std::size_t i = slot.hash & mask;
    while (slots_[i].symbol != kNoSymbol) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void StringInterner::reserve(std::size_t symbols) {
  views_.reserve(symbols);
  if (slots_for(symbols) > slots_.size()) rehash(slots_for(symbols));
}

std::size_t StringInterner::memory_bytes() const noexcept {
  return arena_bytes_ + views_.capacity() * sizeof(std::string_view) +
         slots_.capacity() * sizeof(Slot);
}

}  // namespace jsoncdn::logs
