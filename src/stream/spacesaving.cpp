#include "stream/spacesaving.h"

#include <algorithm>
#include <stdexcept>

namespace jsoncdn::stream {

namespace {

// Min-heap moves by count, shared by the bound heap and the string-keyed one.
// `placed(slot)` runs for every slot an element moves into, so a caller can
// keep an index of slots current.
template <typename Heap, typename Placed>
void sift_up(Heap& heap, std::size_t i, Placed placed) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (heap[parent].count <= heap[i].count) break;
    std::swap(heap[parent], heap[i]);
    placed(parent);
    placed(i);
    i = parent;
  }
}

// Swaps heap[i] down past every smaller child (the left one on ties), but
// writes each displaced element once and the moving one at its final slot.
template <typename Heap, typename Placed>
void sift_down(Heap& heap, std::size_t i, Placed placed) {
  const std::size_t n = heap.size();
  const auto moving = heap[i];
  for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && heap[child + 1].count < heap[child].count) ++child;
    if (!(heap[child].count < moving.count)) break;
    heap[i] = heap[child];
    placed(i);
    i = child;
  }
  heap[i] = moving;
  placed(i);
}

}  // namespace

SpaceSaving::SpaceSaving(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0)
    throw std::invalid_argument("SpaceSaving: capacity == 0");
  heap_.reserve(capacity);
  index_.reserve(capacity);
}

void SpaceSaving::bind(const logs::StringInterner& dict, Scratch& scratch) {
  scratch.dict_ = &dict;
  scratch.dict_size_ = dict.size();
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Entry& e = heap_[i];
    // A slot's symbol from the last unbind() still holds wherever the
    // dictionary maps it to the same key; only other keys are looked up.
    Symbol key = i < scratch.last_.size() ? scratch.last_[i] : kNoSymbol;
    if (key >= scratch.dict_size_ || dict.view(key) != e.key)
      key = dict.find(e.key);
    if (key == kNoSymbol) {
      key = static_cast<Symbol>(scratch.symbols());
      scratch.foreign_.push_back(e.key);
    }
    scratch.heap_.push_back(
        {e.count, e.error, key, static_cast<std::uint32_t>(i)});
  }
  if (scratch.slot_of_.size() < scratch.symbols())
    scratch.slot_of_.resize(scratch.symbols(), Scratch::kNoSlot);
  for (std::size_t i = 0; i < scratch.heap_.size(); ++i)
    scratch.slot_of_[scratch.heap_[i].key] = static_cast<std::uint32_t>(i);
}

SpaceSaving::Symbol SpaceSaving::offer(Scratch& scratch, Symbol key) {
  auto& heap = scratch.heap_;
  auto& slot_of = scratch.slot_of_;
  const auto placed = [&](std::size_t slot) {
    slot_of[heap[slot].key] = static_cast<std::uint32_t>(slot);
  };
  ++total_;
  if (const std::uint32_t slot = slot_of[key]; slot != Scratch::kNoSlot) {
    ++heap[slot].count;
    sift_down(heap, slot, placed);
    return kNoSymbol;
  }
  if (heap.size() < capacity_) {
    heap.push_back({1, 0, key});
    placed(heap.size() - 1);
    sift_up(heap, heap.size() - 1, placed);
    return kNoSymbol;
  }
  // Replace the minimum counter: the newcomer inherits its count as error.
  auto& root = heap.front();
  const Symbol evicted = root.key;
  slot_of[evicted] = Scratch::kNoSlot;
  root = {root.count + 1, root.count, key};
  sift_down(heap, 0, placed);
  return evicted;
}

void SpaceSaving::unbind(Scratch& scratch) {
  // heap_ still holds the entries it had at bind(). A key tracked since then
  // moves its string to its new slot; only an admitted key builds one.
  scratch.kept_.assign(heap_.size(), 0);
  scratch.keys_.clear();
  for (const auto& slot : scratch.heap_) {
    if (slot.origin == Scratch::kNoSlot) {
      scratch.keys_.emplace_back(scratch.key(slot.key));
    } else {
      scratch.kept_[slot.origin] = 1;
      scratch.keys_.push_back(std::move(heap_[slot.origin].key));
    }
  }
  for (std::size_t i = 0; i < heap_.size(); ++i)
    if (!scratch.kept_[i]) index_.erase(heap_[i].key);
  heap_.clear();
  scratch.last_.clear();
  for (std::size_t i = 0; i < scratch.heap_.size(); ++i) {
    const auto& slot = scratch.heap_[i];
    heap_.push_back({std::move(scratch.keys_[i]), slot.count, slot.error});
    if (slot.origin == Scratch::kNoSlot) {
      index_.emplace(heap_.back().key, i);
    } else if (slot.origin != i) {
      index_.find(heap_.back().key)->second = i;
    }
    scratch.slot_of_[slot.key] = Scratch::kNoSlot;
    scratch.last_.push_back(slot.key);
  }
  scratch.heap_.clear();
  scratch.foreign_.clear();
  scratch.dict_ = nullptr;
  scratch.dict_size_ = 0;
}

bool SpaceSaving::contains(std::string_view key) const {
  return index_.find(key) != index_.end();
}

std::uint64_t SpaceSaving::estimate(std::string_view key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? untracked_bound() : heap_[it->second].count;
}

std::uint64_t SpaceSaving::untracked_bound() const noexcept {
  return heap_.size() < capacity_ || heap_.empty() ? 0 : heap_.front().count;
}

std::vector<HeavyHitter> SpaceSaving::top(std::size_t n) const {
  std::vector<HeavyHitter> out;
  out.reserve(heap_.size());
  for (const auto& e : heap_) out.push_back({e.key, e.count, e.error});
  std::sort(out.begin(), out.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key < b.key;
            });
  if (out.size() > n) out.resize(n);
  return out;
}

void SpaceSaving::merge(const SpaceSaving& other) {
  if (capacity_ != other.capacity_)
    throw std::invalid_argument("SpaceSaving::merge: capacity mismatch");
  const std::uint64_t bound_a = untracked_bound();
  const std::uint64_t bound_b = other.untracked_bound();

  // Combined estimates over the key union; absent sides contribute their
  // untracked bound to both count and error.
  std::unordered_map<std::string, Entry> combined;
  combined.reserve(heap_.size() + other.heap_.size());
  for (const auto& e : heap_)
    combined[e.key] = {e.key, e.count + bound_b, e.error + bound_b};
  for (const auto& e : other.heap_) {
    auto [it, inserted] =
        combined.try_emplace(e.key, Entry{e.key, bound_a, bound_a});
    it->second.count += e.count;
    it->second.error += e.error;
    if (!inserted) {
      // Key present in both: remove the absent-side bound added above.
      it->second.count -= bound_b;
      it->second.error -= bound_b;
    }
  }

  std::vector<Entry> entries;
  entries.reserve(combined.size());
  for (auto& [key, e] : combined) entries.push_back(std::move(e));
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  if (entries.size() > capacity_) entries.resize(capacity_);

  heap_.clear();
  index_.clear();
  total_ += other.total_;
  for (auto& e : entries) {
    heap_.push_back(std::move(e));
    sift_up(heap_, heap_.size() - 1, [](std::size_t) {});
  }
  for (std::size_t i = 0; i < heap_.size(); ++i)
    index_.emplace(heap_[i].key, i);
}

std::size_t SpaceSaving::memory_bytes() const noexcept {
  std::size_t bytes = sizeof(*this) + heap_.capacity() * sizeof(Entry) +
                      index_.size() * (sizeof(std::string) + sizeof(std::size_t));
  for (const auto& e : heap_) bytes += 2 * e.key.capacity();
  return bytes;
}

}  // namespace jsoncdn::stream
