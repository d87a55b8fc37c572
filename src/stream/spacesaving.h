// Space-Saving heavy hitters (Metwally et al. '05): top-K tracking in a
// fixed budget of `capacity` counters. Guarantees: every key whose true
// count exceeds N / capacity is tracked; a tracked key's count overestimates
// its true count by at most its recorded `error`, which never exceeds
// N / capacity.
//
// Keys arrive as dictionary symbols (logs::StringInterner). bind() resolves
// every tracked key to its symbol in one dictionary and puts the heap in a
// caller-owned Scratch, where offer() keeps it with a flat symbol -> slot
// index, so the hot path neither hashes nor copies a string. unbind() writes
// the heap back with string keys; a key tracked throughout keeps its string,
// and only keys admitted since bind() are built. The sketch's own members
// hold that string-keyed state, which is what merge(), top(), contains(),
// estimate() and memory_bytes() read: call them only while the sketch is
// unbound.
//
// Merge contract (Agarwal et al., "Mergeable Summaries"): for each key in
// either operand, absent-side counts are bounded by that side's minimum
// counter; the union is re-truncated to the capacity largest. The merged
// sketch keeps the same error guarantees over the combined stream. Contents
// depend on operand order, so shard merges must follow the chunk-ordered
// contract (stats::parallel_reduce) for reproducible output; the guarantees
// themselves hold for any order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "logs/interner.h"

namespace jsoncdn::stream {

struct HeavyHitter {
  std::string key;
  std::uint64_t count = 0;  // estimate; >= true count
  std::uint64_t error = 0;  // count - error <= true count <= count
};

class SpaceSaving {
 public:
  using Symbol = logs::StringInterner::Symbol;
  static constexpr Symbol kNoSymbol = logs::StringInterner::kNoSymbol;

  // The working state of a sketch bound to one dictionary: its heap with
  // symbols for keys, and symbol -> heap slot. A tracked key the dictionary
  // lacks gets a symbol past the dictionary's end. A scratch serves one
  // bound sketch at a time; unbind() leaves it ready for the next bind().
  class Scratch {
   public:
    // The key bound symbol `s` stands for.
    [[nodiscard]] std::string_view key(Symbol s) const noexcept {
      return s < dict_size_ ? dict_->view(s) : foreign_[s - dict_size_];
    }
    // One past the largest bound symbol.
    [[nodiscard]] std::size_t symbols() const noexcept {
      return dict_size_ + foreign_.size();
    }
    [[nodiscard]] bool tracks(Symbol s) const noexcept {
      return slot_of_[s] != kNoSlot;
    }
    // The tracked keys, by heap slot.
    [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
    [[nodiscard]] Symbol symbol_at(std::size_t slot) const noexcept {
      return heap_[slot].key;
    }

   private:
    friend class SpaceSaving;
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;
    struct Slot {
      std::uint64_t count = 0;
      std::uint64_t error = 0;
      Symbol key = kNoSymbol;
      std::uint32_t origin = kNoSlot;  // heap slot at bind(), if tracked then
    };
    const logs::StringInterner* dict_ = nullptr;
    std::size_t dict_size_ = 0;
    std::vector<std::string_view> foreign_;  // symbols dict_size_ + i
    std::vector<Slot> heap_;
    std::vector<std::uint32_t> slot_of_;  // by symbol
    // Each heap slot's symbol at the last unbind(): bind() checks it against
    // the new dictionary before it hashes the key.
    std::vector<Symbol> last_;
    std::vector<std::uint8_t> kept_;  // unbind(): heap slots still tracked
    std::vector<std::string> keys_;   // unbind(): keys in the new slot order
  };

  // Requires capacity >= 1.
  explicit SpaceSaving(std::size_t capacity);

  // Binds the sketch to `dict` (which must not grow until unbind()).
  void bind(const logs::StringInterner& dict, Scratch& scratch);

  // Offers one occurrence of `key`, a symbol of the bound dictionary.
  // Returns the symbol evicted to make room, or kNoSymbol — the triage layer
  // uses this to drop per-flow state for keys that fell out of the heavy set.
  Symbol offer(Scratch& scratch, Symbol key);

  // Writes the bound state back with string keys.
  void unbind(Scratch& scratch);

  [[nodiscard]] bool contains(std::string_view key) const;
  // Count estimate for a tracked key; untracked keys report the untracked
  // bound (their true count cannot exceed it).
  [[nodiscard]] std::uint64_t estimate(std::string_view key) const;

  // The `n` largest tracked keys, count descending, key ascending on ties.
  [[nodiscard]] std::vector<HeavyHitter> top(std::size_t n) const;

  // Upper bound on the true count of any key NOT tracked: the minimum
  // counter when full, 0 otherwise.
  [[nodiscard]] std::uint64_t untracked_bound() const noexcept;

  // Guaranteed worst-case overestimation: total_weight / capacity.
  [[nodiscard]] double error_bound() const noexcept {
    return static_cast<double>(total_) / static_cast<double>(capacity_);
  }

  void merge(const SpaceSaving& other);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] std::uint64_t total_weight() const noexcept { return total_; }
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  struct Entry {
    std::string key;
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };

  // Transparent hashing so lookups take string_view without allocating a
  // temporary std::string.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  using Index =
      std::unordered_map<std::string, std::size_t, StringHash, std::equal_to<>>;

  // Min-heap by count over heap_, with index_ mapping key -> heap slot.
  std::size_t capacity_;
  std::uint64_t total_ = 0;
  std::vector<Entry> heap_;
  Index index_;
};

}  // namespace jsoncdn::stream
