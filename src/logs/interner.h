// Arena-backed string interning: the dictionary half of the columnar log
// store. Every distinct string is stored exactly once in a bump-allocated
// arena and identified by a dense, stable u32 symbol. Lookups are
// string_view-keyed (no allocation); views returned by view() point into the
// arena and stay valid for the interner's lifetime — arena blocks are never
// moved or freed, so growth invalidates nothing.
//
// The symbol table is one flat, power-of-two, linear-probing array. Each
// slot holds the string's 64-bit hash, its arena bytes and its symbol, so a
// hit is confirmed from the slot and the string bytes alone. intern(),
// find() and intern_batch() all go through the same probe.
//
// Symbols are assigned in first-intern order, so an interner built by a
// single-threaded scan over a record stream is a pure function of the
// distinct-string order of that stream; the hash only places slots. The
// interner itself is not thread-safe; parallel consumers share a *built*
// (const) interner freely.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

namespace jsoncdn::logs {

class StringInterner {
 public:
  using Symbol = std::uint32_t;
  // Returned by find() for strings never interned. Never a valid symbol:
  // intern() throws before the table could reach 2^32 - 1 entries.
  static constexpr Symbol kNoSymbol = 0xffffffffu;

  StringInterner() = default;

  // Not copyable (the slots point into the arena); movable.
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;
  StringInterner(StringInterner&&) = default;
  StringInterner& operator=(StringInterner&&) = default;

  // Returns the existing symbol for `s`, or copies `s` into the arena and
  // assigns the next dense symbol. O(1) amortized; allocates only for
  // strings never seen before.
  Symbol intern(std::string_view s);

  // Interns strings[k] into out[k] for every k, in order: the symbols that
  // one intern() call per string would return. Hashes the whole batch
  // first. Probing string k then prefetches the home slot of string
  // k + 2 * kPrefetchAhead and the arena bytes behind the home slot of
  // string k + kPrefetchAhead, so the table's cache misses overlap instead
  // of queueing one behind another.
  void intern_batch(std::span<const std::string_view> strings, Symbol* out);

  // Symbol of `s` if it was ever interned, else kNoSymbol. Never allocates.
  [[nodiscard]] Symbol find(std::string_view s) const noexcept;

  // The interned string for a symbol. Valid for the interner's lifetime.
  [[nodiscard]] std::string_view view(Symbol id) const noexcept {
    return views_[id];
  }

  [[nodiscard]] std::size_t size() const noexcept { return views_.size(); }
  [[nodiscard]] bool empty() const noexcept { return views_.empty(); }

  void reserve(std::size_t symbols);

  // Approximate heap footprint: arena blocks + slot table + view index.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  // 24 bytes. symbol == kNoSymbol marks an empty slot.
  struct Slot {
    std::uint64_t hash = 0;
    const char* data = nullptr;
    std::uint32_t size = 0;
    Symbol symbol = kNoSymbol;
  };

  static constexpr std::size_t kBlockBytes = 1 << 16;  // 64 KiB arena blocks
  static constexpr std::size_t kPrefetchAhead = 8;

  // Index of the slot holding `s`, or of the empty slot where it belongs.
  // The table must have at least one empty slot.
  [[nodiscard]] std::size_t probe(std::uint64_t hash,
                                  std::string_view s) const noexcept;
  // intern() of a string whose hash is already known.
  Symbol intern_hashed(std::uint64_t hash, std::string_view s);
  // Adds `s` at slot `i`, the empty slot probe() found for it.
  Symbol insert(std::size_t i, std::uint64_t hash, std::string_view s);
  // Rebuilds the slot table with `slot_count` (a power of two) slots.
  void rehash(std::size_t slot_count);

  // Copies `s` into the arena, returning a stable view.
  std::string_view arena_store(std::string_view s);

  std::vector<std::unique_ptr<char[]>> blocks_;
  std::size_t block_used_ = 0;      // bytes used in blocks_.back()
  std::size_t block_capacity_ = 0;  // capacity of blocks_.back()
  std::size_t arena_bytes_ = 0;     // total capacity across blocks

  std::vector<std::string_view> views_;  // symbol -> arena view
  std::vector<Slot> slots_;  // empty, or a power of two at most half full
};

}  // namespace jsoncdn::logs
